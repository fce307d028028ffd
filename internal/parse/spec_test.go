package parse

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/core"
	"dwcomplement/internal/relation"
)

const figure1Spec = `
# Figure 1 of the paper.
relation Sale(item string, clerk string)
relation Emp(clerk string, age int) key(clerk)

view Sold = pi{item, clerk, age}(Sale join Emp)

insert Sale('TV set', 'Mary')
insert Sale('VCR', 'Mary')
insert Sale('PC', 'John')
insert Emp('Mary', 23)
insert Emp('John', 25)
insert Emp('Paula', 32)
`

func TestSpecFigure1(t *testing.T) {
	spec, err := SpecText(figure1Spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.DB.Names(); len(got) != 2 || got[0] != "Sale" || got[1] != "Emp" {
		t.Errorf("Names = %v", got)
	}
	sc, _ := spec.DB.Schema("Emp")
	if !sc.KeySet().Equal(relation.NewAttrSet("clerk")) {
		t.Error("Emp key lost")
	}
	if sc.AttrType("age") != relation.KindInt {
		t.Error("age type lost")
	}
	if spec.Views.Len() != 1 {
		t.Fatalf("views = %v", spec.Views.Names())
	}
	sold, _ := spec.Views.ByName("Sold")
	if !sold.BaseSet().Equal(relation.NewAttrSet("Sale", "Emp")) {
		t.Error("Sold bases wrong")
	}
	if spec.State.MustRelation("Sale").Len() != 3 || spec.State.MustRelation("Emp").Len() != 3 {
		t.Error("initial data wrong")
	}
	// The parsed spec feeds directly into the complement machinery.
	comp, err := core.Compute(spec.DB, spec.Views, core.Proposition22())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := comp.Entry("Emp")
	r, err := algebra.EvalCtx(nil, e.Def, spec.State)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Errorf("C_Emp = %v", r)
	}
}

func TestSpecConstraints(t *testing.T) {
	src := `
relation Sale(item string, clerk string)
relation Emp(clerk string, age int) key(clerk)
relation Order_paris(okey int, loc string) key(okey)
relation Site(loc string) key(loc)
ind Sale[clerk] <= Emp[clerk]
fk Order_paris(loc) -> Site
domain Order_paris: loc = 'paris'
`
	spec, err := SpecText(src)
	if err != nil {
		t.Fatal(err)
	}
	cons := spec.DB.Constraints()
	if !cons.Implies("Sale", "Emp", relation.NewAttrSet("clerk")) {
		t.Error("ind lost")
	}
	if !cons.Implies("Order_paris", "Site", relation.NewAttrSet("loc")) {
		t.Error("fk lost")
	}
	doms := cons.Domains("Order_paris")
	if len(doms) != 1 || !algebra.CondEqual(doms[0].Cond, algebra.AttrEqConst("loc", relation.String_("paris"))) {
		t.Errorf("domain lost: %v", doms)
	}
}

func TestSpecDelete(t *testing.T) {
	src := `
relation R(a int)
insert R(1)
insert R(2)
delete R(1)
`
	spec, err := SpecText(src)
	if err != nil {
		t.Fatal(err)
	}
	r := spec.State.MustRelation("R")
	if r.Len() != 1 || !r.Contains(relation.Tuple{relation.Int(2)}) {
		t.Errorf("R = %v", r)
	}
}

func TestSpecViewUnicode(t *testing.T) {
	src := `
relation Sale(item string, clerk string)
relation Emp(clerk string, age int) key(clerk)
view Sold = π{age,clerk,item}(Sale ⋈ Emp)
`
	spec, err := SpecText(src)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Views.Len() != 1 {
		t.Error("unicode view lost")
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []struct {
		name, src string
	}{
		{"unknown stmt", "widget R(a)"},
		{"dup relation", "relation R(a)\nrelation R(a)"},
		{"bad type", "relation R(a decimal)"},
		{"key outside", "relation R(a) key(b)"},
		{"ind attr mismatch", "relation A(x)\nrelation B(x)\nind A[x] <= B[y]"},
		{"ind unknown", "relation A(x)\nind A[x] <= B[x]"},
		{"fk no key", "relation A(x)\nrelation B(x)\nfk A(x) -> B"},
		{"domain unknown rel", "domain R: a = 1"},
		{"domain trivial", "relation R(a)\ndomain R: true"},
		{"view not psj", "relation A(x)\nrelation B(x)\nview V = A union B"},
		{"view unknown base", "view V = pi{a}(Nope)"},
		{"insert unknown", "insert R(1)"},
		{"insert arity", "relation R(a, b)\ninsert R(1)"},
		{"insert type", "relation R(a int)\ninsert R('x')"},
		{"insert bare ident", "relation R(a string)\ninsert R(Mary)"},
		{"key violation in data", "relation R(a int, b int) key(a)\ninsert R(1, 1)\ninsert R(1, 2)"},
		{"view name clash", "relation R(a)\nview R = pi{a}(R)"},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := SpecText(tt.src); err == nil {
				t.Errorf("accepted invalid spec:\n%s", tt.src)
			}
		})
	}
}

func TestSpecErrorMessagesCarryLines(t *testing.T) {
	_, err := SpecText("relation R(a int)\ninsert R('x')")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error without line info: %v", err)
	}
}

func TestSpecLoadCSV(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "emp.csv"),
		[]byte("clerk:string,age:int\nMary,23\nPaula,32\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `
relation Emp(clerk string, age int) key(clerk)
load Emp from 'emp.csv'
insert Emp('Zoe', 40)
`
	spec, err := SpecTextAt(src, dir)
	if err != nil {
		t.Fatal(err)
	}
	emp := spec.State.MustRelation("Emp")
	if emp.Len() != 3 {
		t.Errorf("Emp = %v", emp)
	}
	// Errors: missing file, unknown relation, schema mismatch, key violation.
	if _, err := SpecTextAt("relation R(a)\nload R from 'missing.csv'", dir); err == nil {
		t.Error("missing csv accepted")
	}
	if _, err := SpecTextAt("relation R(a)\nload Nope from 'emp.csv'", dir); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := SpecTextAt("relation R(a)\nload R from 'emp.csv'", dir); err == nil {
		t.Error("schema mismatch accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, "dup.csv"),
		[]byte("clerk:string,age:int\nMary,23\nMary,99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecTextAt("relation Emp(clerk string, age int) key(clerk)\nload Emp from 'dup.csv'", dir); err == nil {
		t.Error("key-violating csv accepted")
	}
	// Malformed load syntax.
	if _, err := SpecText("relation R(a)\nload R 'x.csv'"); err == nil {
		t.Error("load without from accepted")
	}
	if _, err := SpecText("relation R(a)\nload R from x"); err == nil {
		t.Error("unquoted path accepted")
	}
}
