package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// BatchLife flags the PR-6 use-after-invalidate class, which the column
// pages of PR 25 made a read of live memory: a relation.Batch is the row
// page itself, read in place, and a page no clone shares is written in
// place. Ranging X.Batches() while calling anything that — per the
// cross-package facts — mutates X (or refreshes stored relations
// wholesale) makes the iteration read pages mid-write: a row a delete
// moved is seen twice or not at all, and a batch already handed out reads
// the moved row, or a column an insert promoted to ColAny, over its old
// row count. A Batch value that escapes its loop and is used after a later
// mutation reads the same. relation.TestBatchHeldAcrossAWrite pins that
// behaviour; nothing else stands between a caller and it, which is why the
// check stays.
//
// A mutation of an unrelated relation (the fresh output relation of an
// operator like SelectBatchStats) is fine: the check requires the
// mutated operand to be derivation-related to the iteration's origin,
// except for MutatesStored callees (refresh-class entry points), which
// invalidate every stored relation.
var BatchLife = &Analyzer{
	Name: "batchlife",
	Doc:  "no mutation of a relation while a Batch window over it is live",
	Run:  runBatchLife,
}

func runBatchLife(pass *Pass) {
	facts := pass.Prog.Facts()
	for _, u := range pass.Prog.Units() {
		if u.Pkg != pass.Pkg {
			continue
		}
		checkBatchLife(pass, u, facts)
	}
}

// batchOrigin is one live Batches() iteration.
type batchOrigin struct {
	root types.Object // base variable of the ranged relation/rows expr
	iter types.Object // the iteration variable (the Batch), may be nil
	rng  *ast.RangeStmt
}

// escapedBatch is a Batch value assigned out of its iteration.
type escapedBatch struct {
	obj       types.Object
	origin    *batchOrigin
	assignEnd token.Pos
}

func checkBatchLife(pass *Pass, u *FuncUnit, facts *FactSet) {
	info := u.Pkg.Info
	deriv := derivations(u)
	var escaped []*escapedBatch

	// Walk with the stack of active iterations; flag invalidating calls
	// inside any live range and record Batch values that escape.
	var active []*batchOrigin
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			// Other-goroutine / other-function bodies have their own
			// iterations; calls there do not run inside this one.
			return false
		case *ast.RangeStmt:
			if org := batchesOrigin(info, n); org != nil {
				ast.Inspect(n.X, walk) // the ranged expr itself runs once, outside
				active = append(active, org)
				ast.Inspect(n.Body, walk)
				active = active[:len(active)-1]
				return false
			}
		case *ast.AssignStmt:
			// b escaping its loop: `saved = b` with saved declared anywhere.
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				li, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				lobj := info.Defs[li]
				if lobj == nil {
					lobj = info.Uses[li]
				}
				rroot := rootObject(info, n.Rhs[i])
				if lobj == nil || rroot == nil {
					continue
				}
				for _, org := range active {
					if org.iter != nil && rroot == org.iter && lobj != org.iter {
						escaped = append(escaped, &escapedBatch{obj: lobj, origin: org, assignEnd: n.End()})
					}
				}
			}
		case *ast.CallExpr:
			if len(active) == 0 {
				return true
			}
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			f := facts.get(FuncKey(fn))
			for _, org := range active {
				if cause, ok := invalidates(info, deriv, n, fn, f, org.root); ok {
					pass.Reportf(n.Pos(),
						"Batch window invalidated: %s while ranging %s.Batches() — a batch reads its row page in place, so the iteration would read pages the mutation is writing; finish the iteration (or copy the rows) first",
						cause, objName(org.root))
					break
				}
			}
		}
		return true
	}
	ast.Inspect(u.Decl.Body, walk)

	// Escaped Batch values: an invalidating call after the loop followed
	// by a use of the value.
	for _, esc := range escaped {
		reportEscapedUse(pass, u, facts, deriv, esc)
	}
}

// batchesOrigin recognises `for b := range X.Batches()` and returns the
// origin, or nil.
func batchesOrigin(info *types.Info, rng *ast.RangeStmt) *batchOrigin {
	call, ok := ast.Unparen(rng.X).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "Batches" {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	root := rootObject(info, sel.X)
	if root == nil {
		return nil
	}
	org := &batchOrigin{root: root, rng: rng}
	if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
		org.iter = info.Defs[id]
	}
	return org
}

// invalidates reports whether the call, per the callee's facts, mutates
// a relation related to origin root (or refreshes stored relations),
// with a human-readable cause.
func invalidates(info *types.Info, deriv map[types.Object]types.Object, call *ast.CallExpr, fn *types.Func, f *FuncFacts, origin types.Object) (string, bool) {
	if f.MutatesStored {
		return "call to " + shortFuncName(FuncKey(fn)) + " refreshes stored relations", true
	}
	if f.MutatesRecv {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if related(deriv, rootObject(info, sel.X), origin) {
				return shortFuncName(FuncKey(fn)) + " mutates the ranged relation", true
			}
		}
	}
	for _, idx := range f.MutatesParams {
		if idx < len(call.Args) && related(deriv, rootObject(info, call.Args[idx]), origin) {
			return "call to " + shortFuncName(FuncKey(fn)) + " mutates the ranged relation", true
		}
	}
	return "", false
}

// reportEscapedUse flags uses of an escaped Batch after an invalidating
// call. The check is source-ordered within the function: an invalidating
// call positioned after the iteration, followed by a use of the value.
func reportEscapedUse(pass *Pass, u *FuncUnit, facts *FactSet, deriv map[types.Object]types.Object, esc *escapedBatch) {
	info := u.Pkg.Info
	loopEnd := esc.origin.rng.End()
	var callPositions []token.Pos
	var callNames []string
	var uses []token.Pos
	ast.Inspect(u.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if n.Pos() <= loopEnd {
				return true
			}
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			if _, ok := invalidates(info, deriv, n, fn, facts.get(FuncKey(fn)), esc.origin.root); ok {
				callPositions = append(callPositions, n.Pos())
				callNames = append(callNames, shortFuncName(FuncKey(fn)))
			}
		case *ast.Ident:
			if info.Uses[n] == esc.obj && n.Pos() > esc.assignEnd {
				uses = append(uses, n.Pos())
			}
		}
		return true
	})
	sort.Slice(uses, func(i, j int) bool { return uses[i] < uses[j] })
	for _, use := range uses {
		for i, cp := range callPositions {
			if cp < use {
				pass.Reportf(use,
					"Batch value used after %s wrote its backing relation (%s): a batch reads its row page in place and now sees what the write left there; copy the rows before mutating",
					callNames[i], objName(esc.origin.root))
				return // one report per escaped value
			}
		}
	}
}

// derivations maps each locally assigned variable to the root object of
// its initialiser, linking views derived from a relation (`rel := w.rel`)
// to their source for the relatedness check.
func derivations(u *FuncUnit) map[types.Object]types.Object {
	info := u.Pkg.Info
	deriv := make(map[types.Object]types.Object)
	record := func(lhs *ast.Ident, rhs ast.Expr) {
		lobj := info.Defs[lhs]
		if lobj == nil {
			lobj = info.Uses[lhs]
		}
		rroot := rootObject(info, rhs)
		if lobj != nil && rroot != nil && lobj != rroot {
			deriv[lobj] = rroot
		}
	}
	ast.Inspect(u.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if li, ok := lhs.(*ast.Ident); ok {
					record(li, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) != len(n.Values) {
				return true
			}
			for i, name := range n.Names {
				record(name, n.Values[i])
			}
		}
		return true
	})
	return deriv
}

// related reports whether two variables are derivation-linked: equal, or
// one reachable from the other through the assignment chains.
func related(deriv map[types.Object]types.Object, a, b types.Object) bool {
	if a == nil || b == nil {
		return false
	}
	chain := func(o types.Object) map[types.Object]bool {
		seen := map[types.Object]bool{o: true}
		for {
			next, ok := deriv[o]
			if !ok || seen[next] {
				return seen
			}
			seen[next] = true
			o = next
		}
	}
	ca := chain(a)
	for o := range chain(b) {
		if ca[o] {
			return true
		}
	}
	return false
}

func objName(o types.Object) string {
	if o == nil {
		return "?"
	}
	return o.Name()
}
