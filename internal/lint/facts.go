package lint

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"io"
	"sort"
)

// This file is the cross-package Facts layer of the dataflow framework:
// per-function summaries computed bottom-up over the call graph and
// consulted when analyzing callers, so the interprocedural analyzers
// (lockorder, goleak, batchlife) see through call boundaries without
// inlining bodies. Facts have a stable JSON encoding (Encode/Decode) so
// a driver can export the summaries of one analysis run and import them
// into another — the same role x/tools' analysis facts play, rebuilt
// here stdlib-only. Well-known API functions whose sources may be
// outside the analyzed program (the relation mutators, the maintenance
// refresh entry points, net/http's unstoppable listeners) are covered
// by seed facts, so single-package runs still see their effects.

// FuncFacts are the exported properties of one function, keyed by the
// function's canonical name (types.Func.FullName()).
type FuncFacts struct {
	// Acquires lists the mutex classes ("pkg.Type.field" or "pkg.var")
	// this function locks directly.
	Acquires []string `json:"acquires,omitempty"`
	// MayAcquire is the transitive closure of Acquires over the call
	// graph: every mutex class a call to this function may take.
	MayAcquire []string `json:"mayAcquire,omitempty"`

	// MutatesRecv marks a method that writes the row pages of its
	// receiver (a *relation.Relation mutator or a wrapper).
	MutatesRecv bool `json:"mutatesRecv,omitempty"`
	// MutatesParams lists parameter indexes whose relation's row pages
	// the function writes.
	MutatesParams []int `json:"mutatesParams,omitempty"`
	// MutatesStored marks a function that invalidates relations reached
	// through struct fields, containers, or call results — the
	// refresh-class effect that invalidates any cursor over stored data.
	MutatesStored bool `json:"mutatesStored,omitempty"`

	// InescapableLoop marks a body containing a `for {}` loop with no
	// break, return, goto, or terminating call that leaves it.
	InescapableLoop bool `json:"inescapableLoop,omitempty"`
	// NeverReturns is the transitive form: the function has an
	// inescapable loop or (possibly) calls something that never returns
	// without a shutdown handle (e.g. net/http.ListenAndServe).
	NeverReturns bool `json:"neverReturns,omitempty"`
	// WaitsOnDone marks a body that receives from a channel or selects
	// on ctx.Done() — used to word goleak diagnostics, not to suppress
	// them (a goroutine that receives but never exits still leaks).
	WaitsOnDone bool `json:"waitsOnDone,omitempty"`
}

// FactSet maps canonical function names to their facts.
type FactSet struct {
	Funcs map[string]*FuncFacts `json:"funcs"`
}

// get returns the facts for key, or an empty read-only default.
func (fs *FactSet) get(key string) *FuncFacts {
	if f, ok := fs.Funcs[key]; ok {
		return f
	}
	return &FuncFacts{}
}

// ensure returns the mutable facts entry for key.
func (fs *FactSet) ensure(key string) *FuncFacts {
	f, ok := fs.Funcs[key]
	if !ok {
		f = &FuncFacts{}
		fs.Funcs[key] = f
	}
	return f
}

// Encode writes the facts as deterministic JSON.
func (fs *FactSet) Encode(w io.Writer) error {
	keys := make([]string, 0, len(fs.Funcs))
	for k := range fs.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Marshal through an ordered rendering so exports diff cleanly.
	type entry struct {
		Func string `json:"func"`
		*FuncFacts
	}
	out := make([]entry, len(keys))
	for i, k := range keys {
		out[i] = entry{Func: k, FuncFacts: fs.Funcs[k]}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// DecodeFacts reads an Encode-produced stream back into a FactSet.
func DecodeFacts(r io.Reader) (*FactSet, error) {
	type entry struct {
		Func string `json:"func"`
		*FuncFacts
	}
	var in []entry
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	fs := &FactSet{Funcs: make(map[string]*FuncFacts, len(in))}
	for _, e := range in {
		if e.FuncFacts != nil {
			fs.Funcs[e.Func] = e.FuncFacts
		}
	}
	return fs, nil
}

// seedFacts covers API functions whose effects the analyzers must know
// even when their defining package is not part of the analyzed program
// (fixture runs load a single package; dependency sources are never
// parsed). When the package IS analyzed from source, the computed facts
// land on the same keys and the seeds are redundant but consistent.
func seedFacts() map[string]*FuncFacts {
	const rel = "dwcomplement/internal/relation.Relation"
	recvMut := func() *FuncFacts { return &FuncFacts{MutatesRecv: true} }
	return map[string]*FuncFacts{
		// The two invalidation points of the columnar engine: every
		// mutation path funnels through one of them (relation/index.go).
		"(*" + rel + ").noteDeleted":  recvMut(),
		"(*" + rel + ").noteInserted": recvMut(),
		// Public mutators, for runs that see relation only as export data.
		"(*" + rel + ").Insert":       recvMut(),
		"(*" + rel + ").InsertValues": recvMut(),
		"(*" + rel + ").InsertAll":    recvMut(),
		"(*" + rel + ").Delete":       recvMut(),
		// Refresh-class entry points: they rewrite stored relations, so
		// every batch cursor over warehouse state is invalidated.
		"(*dwcomplement/internal/maintain.Maintainer).RefreshContext": {MutatesStored: true},
		"(*dwcomplement/internal/warehouse.Warehouse).Commit":         {MutatesStored: true},
		"dwcomplement.Refresh": {MutatesStored: true},
		// Unstoppable listeners: no handle exists to shut them down, so
		// a goroutine running one can never be collected. (The *Server
		// methods are deliberately not seeded — the owner can call
		// Shutdown/Close.)
		"net/http.ListenAndServe":    {NeverReturns: true},
		"net/http.ListenAndServeTLS": {NeverReturns: true},
	}
}

// Facts computes (once) the fact set of the whole program: direct
// per-function scans, merged with the seeds, then a fixpoint over the
// call graph for the transitive properties.
func (p *Program) Facts() *FactSet {
	if p.facts != nil {
		return p.facts
	}
	p.build()
	fs := &FactSet{Funcs: make(map[string]*FuncFacts)}
	for k, v := range seedFacts() {
		fs.Funcs[k] = v
	}
	// Direct scans.
	for _, u := range p.Units() {
		f := fs.ensure(u.Key)
		sum := p.lockSummary(u)
		f.Acquires = append([]string(nil), sum.acquires...)
		f.InescapableLoop = hasInescapableLoop(u.Decl.Body)
		f.WaitsOnDone = f.WaitsOnDone || waitsOnDone(u.Decl.Body)
	}
	// Transitive fixpoint: iterate until no fact changes. The graph is
	// small (one repository), so a simple round-robin sweep suffices.
	units := p.Units()
	for changed := true; changed; {
		changed = false
		for _, u := range units {
			f := fs.ensure(u.Key)
			for _, cs := range u.calls {
				g := fs.get(cs.Callee)
				// MayAcquire
				for _, cls := range g.Acquires {
					changed = addString(&f.MayAcquire, cls) || changed
				}
				for _, cls := range g.MayAcquire {
					changed = addString(&f.MayAcquire, cls) || changed
				}
				// NeverReturns
				if (g.NeverReturns || g.InescapableLoop) && !f.NeverReturns {
					f.NeverReturns = true
					changed = true
				}
				// Mutation effects seen through the call: classify the
				// mutated operand in the caller's frame.
				if mutationPropagates(u, cs, g, f) {
					changed = true
				}
				if g.MutatesStored && !f.MutatesStored {
					f.MutatesStored = true
					changed = true
				}
			}
			for _, cls := range f.Acquires {
				changed = addString(&f.MayAcquire, cls) || changed
			}
			if f.InescapableLoop && !f.NeverReturns {
				f.NeverReturns = true
				changed = true
			}
		}
	}
	for _, f := range fs.Funcs {
		sort.Strings(f.MayAcquire)
		sort.Ints(f.MutatesParams)
	}
	p.facts = fs
	return fs
}

// addString inserts s into the sorted-insensitive set *dst, reporting
// whether it was new.
func addString(dst *[]string, s string) bool {
	for _, v := range *dst {
		if v == s {
			return false
		}
	}
	*dst = append(*dst, s)
	return true
}

func addInt(dst *[]int, n int) bool {
	for _, v := range *dst {
		if v == n {
			return false
		}
	}
	*dst = append(*dst, n)
	return true
}

// operandKind classifies the expression a mutation lands on, from the
// perspective of the enclosing function.
type operandKind int

const (
	opkLocal  operandKind = iota // a local variable: invisible to callers
	opkRecv                      // the enclosing method's receiver
	opkParam                     // one of the enclosing function's parameters
	opkStored                    // reached through fields/containers/calls: stored state
)

// classifyOperand maps the mutated expression to the enclosing
// function's frame. paramIdx is valid only for opkParam.
func classifyOperand(u *FuncUnit, e ast.Expr) (operandKind, int) {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		obj := u.Pkg.Info.Uses[id]
		if obj == nil {
			obj = u.Pkg.Info.Defs[id]
		}
		if obj == nil {
			return opkStored, 0
		}
		sig := u.Fn.Signature()
		if recv := sig.Recv(); recv != nil && obj == recv {
			return opkRecv, 0
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if obj == sig.Params().At(i) {
				return opkParam, i
			}
		}
		return opkLocal, 0
	}
	// Selector chains rooted at a plain variable still reach storage the
	// caller can see only through that variable's fields → stored state.
	// Index expressions, call results, composite literals: stored.
	return opkStored, 0
}

// mutationPropagates folds one callee's mutation facts into the caller,
// classifying the mutated operands in the caller's frame. Returns true
// when the caller's facts changed.
func mutationPropagates(u *FuncUnit, cs CallSite, g *FuncFacts, f *FuncFacts) bool {
	changed := false
	apply := func(e ast.Expr) {
		switch kind, idx := classifyOperand(u, e); kind {
		case opkRecv:
			// Only meaningful when the receiver itself is the mutated
			// relation (relation-package methods); elsewhere a method
			// mutating "its receiver's relation" goes through a field
			// and classifies as stored.
			if !f.MutatesRecv {
				f.MutatesRecv = true
				changed = true
			}
		case opkParam:
			changed = addInt(&f.MutatesParams, idx) || changed
		case opkStored:
			if !f.MutatesStored {
				f.MutatesStored = true
				changed = true
			}
		}
	}
	if g.MutatesRecv {
		if sel, ok := ast.Unparen(cs.Call.Fun).(*ast.SelectorExpr); ok {
			apply(sel.X)
		}
	}
	for _, idx := range g.MutatesParams {
		if idx < len(cs.Call.Args) {
			apply(cs.Call.Args[idx])
		}
	}
	return changed
}

// hasInescapableLoop reports whether body contains a `for {}` (no
// condition) loop with no way out: no break bound to it, no return, no
// goto, no terminating call inside. Nested function literals are
// separate functions and are skipped.
func hasInescapableLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Cond == nil && !loopEscapes(n) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// loopEscapes reports whether an infinite for loop has any exit: a
// return, a break targeting it (directly or by label), a goto, or a
// terminating call. The check is generous — any of these counts — so a
// missing exit is a high-confidence finding.
func loopEscapes(loop *ast.ForStmt) bool {
	// A labeled break is accepted without resolving the label: it can
	// only target an enclosing statement, and escaping to an enclosing
	// scope leaves this loop too.
	escapes := false
	// depth counts enclosing breakable statements between the loop body
	// and the current node; an unlabeled break with depth 0 exits loop.
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if escapes || n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			escapes = true
		case *ast.BranchStmt:
			switch n.Tok {
			case token.GOTO:
				escapes = true // a goto target inside the loop would be
				// unusual; treat any goto as an exit (anti-flag bias)
			case token.BREAK:
				if n.Label != nil || depth == 0 {
					escapes = true
				}
			}
		case *ast.ExprStmt:
			if isTerminatingCall(n.X) {
				escapes = true
			}
		case *ast.ForStmt:
			walkList(n.Body.List, depth+1, walk)
		case *ast.RangeStmt:
			walkList(n.Body.List, depth+1, walk)
		case *ast.SwitchStmt:
			walkBody(n.Body, depth+1, walk)
		case *ast.TypeSwitchStmt:
			walkBody(n.Body, depth+1, walk)
		case *ast.SelectStmt:
			walkBody(n.Body, depth+1, walk)
		case *ast.BlockStmt:
			walkList(n.List, depth, walk)
		case *ast.IfStmt:
			walk(n.Body, depth)
			walk(n.Else, depth)
		case *ast.LabeledStmt:
			walk(n.Stmt, depth)
		case *ast.DeferStmt, *ast.GoStmt:
			// Deferred/launched bodies do not alter this loop's exits.
		default:
			// Plain statements cannot exit the loop.
		}
	}
	walkList(loop.Body.List, 0, walk)
	return escapes
}

func walkList(list []ast.Stmt, depth int, walk func(ast.Node, int)) {
	for _, s := range list {
		walk(s, depth)
	}
}

func walkBody(body *ast.BlockStmt, depth int, walk func(ast.Node, int)) {
	for _, clause := range body.List {
		switch c := clause.(type) {
		case *ast.CaseClause:
			walkList(c.Body, depth, walk)
		case *ast.CommClause:
			walkList(c.Body, depth, walk)
		}
	}
}

// waitsOnDone reports whether the body receives from a channel (unary
// <-, a select comm clause, or ranging a channel) or checks ctx.Done /
// ctx.Err — the signals a well-behaved goroutine shuts down on.
func waitsOnDone(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Done" || sel.Sel.Name == "Err" {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// funcFactsEqual is used by the round-trip tests.
func funcFactsEqual(a, b *FuncFacts) bool {
	eqs := func(x, y []string) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	eqi := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eqs(a.Acquires, b.Acquires) && eqs(a.MayAcquire, b.MayAcquire) &&
		a.MutatesRecv == b.MutatesRecv && eqi(a.MutatesParams, b.MutatesParams) &&
		a.MutatesStored == b.MutatesStored && a.InescapableLoop == b.InescapableLoop &&
		a.NeverReturns == b.NeverReturns && a.WaitsOnDone == b.WaitsOnDone
}
