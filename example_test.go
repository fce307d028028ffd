package dwc_test

import (
	"context"
	"fmt"

	dwc "dwcomplement"
)

// ExampleComputeComplement reproduces Example 1.1: the complement of the
// Sold = Sale ⋈ Emp warehouse.
func ExampleComputeComplement() {
	db := dwc.NewDatabase()
	db.MustAddSchema(dwc.NewSchema("Sale", "item:string", "clerk:string"))
	db.MustAddSchema(dwc.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
	views := dwc.MustNewViewSet(db,
		dwc.NewView("Sold", []string{"item", "clerk", "age"}, nil, "Sale", "Emp"))

	comp, _ := dwc.ComputeComplement(db, views, dwc.Proposition22())
	for _, e := range comp.Entries() {
		fmt.Printf("%s = %s\n", e.Name, e.Def)
		fmt.Printf("%s = %s\n", e.Base, e.Inverse)
	}
	// Output:
	// C_Sale = Sale ∖ π{clerk,item}(Sale ⋈ Emp)
	// Sale = C_Sale ∪ π{clerk,item}(Sold)
	// C_Emp = Emp ∖ π{age,clerk}(Sale ⋈ Emp)
	// Emp = C_Emp ∪ π{age,clerk}(Sold)
}

// ExampleAnswer shows query independence (Example 1.2): a query
// over the sources answered from the warehouse alone.
func ExampleAnswer() {
	db := dwc.NewDatabase()
	db.MustAddSchema(dwc.NewSchema("Sale", "item:string", "clerk:string"))
	db.MustAddSchema(dwc.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
	views := dwc.MustNewViewSet(db,
		dwc.NewView("Sold", []string{"item", "clerk", "age"}, nil, "Sale", "Emp"))
	st := db.NewState().
		MustInsert("Sale", dwc.Str("TV set"), dwc.Str("Mary")).
		MustInsert("Emp", dwc.Str("Mary"), dwc.Int(23)).
		MustInsert("Emp", dwc.Str("Paula"), dwc.Int(32))

	w, _ := dwc.BuildWarehouse(db, views, dwc.Proposition22(), st)
	ans, _ := dwc.Answer(context.Background(), w, dwc.MustParseExpr("pi{clerk}(Sale) union pi{clerk}(Emp)"))
	fmt.Print(ans.Relation())
	// Output:
	// clerk
	// -----
	// Mary
	// Paula
	// (2 tuples)
}

// ExampleRefresh shows update independence (Theorem 4.1): the
// paper's insertion maintained incrementally without source access.
func ExampleRefresh() {
	db := dwc.NewDatabase()
	db.MustAddSchema(dwc.NewSchema("Sale", "item:string", "clerk:string"))
	db.MustAddSchema(dwc.NewSchema("Emp", "clerk:string", "age:int").WithKey("clerk"))
	views := dwc.MustNewViewSet(db,
		dwc.NewView("Sold", []string{"item", "clerk", "age"}, nil, "Sale", "Emp"))
	st := db.NewState().
		MustInsert("Emp", dwc.Str("Paula"), dwc.Int(32))

	w, _ := dwc.BuildWarehouse(db, views, dwc.Proposition22(), st)
	u := dwc.NewUpdate().MustInsert("Sale", db, dwc.Str("Computer"), dwc.Str("Paula"))
	dwc.Refresh(context.Background(), dwc.NewMaintainer(w.Complement()), w, u)

	sold, _ := w.Relation("Sold")
	fmt.Print(sold)
	// Output:
	// item      clerk  age
	// --------  -----  ---
	// Computer  Paula  32
	// (1 tuple)
}
