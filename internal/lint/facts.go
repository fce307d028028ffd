package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// This file is the cross-package Facts layer of the dataflow framework:
// per-function summaries computed bottom-up over the call graph and
// consulted when analyzing callers, so the interprocedural analyzers
// (lockorder, goleak) see through call boundaries without inlining
// bodies. Well-known API functions whose sources may be outside the
// analyzed program (net/http's unstoppable listeners) are covered by seed
// facts, so single-package runs still see their effects.

// FuncFacts are the exported properties of one function, keyed by the
// function's canonical name (types.Func.FullName()).
type FuncFacts struct {
	// Acquires lists the mutex classes ("pkg.Type.field" or "pkg.var")
	// this function locks directly.
	Acquires []string
	// MayAcquire is the transitive closure of Acquires over the call
	// graph: every mutex class a call to this function may take.
	MayAcquire []string

	// InescapableLoop marks a body containing a `for {}` loop with no
	// break, return, goto, or terminating call that leaves it.
	InescapableLoop bool
	// NeverReturns is the transitive form: the function has an
	// inescapable loop or (possibly) calls something that never returns
	// without a shutdown handle (e.g. net/http.ListenAndServe).
	NeverReturns bool
}

// FactSet maps canonical function names to their facts.
type FactSet struct {
	Funcs map[string]*FuncFacts
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

// seedFacts covers API functions whose effects the analyzers must know
// even when their defining package is not part of the analyzed program
// (fixture runs load a single package; dependency sources are never
// parsed): unstoppable listeners, for which no handle exists to shut them
// down, so a goroutine running one can never be collected. (The *Server
// methods are deliberately not seeded — the owner can call
// Shutdown/Close.)
func seedFacts() map[string]*FuncFacts {
	return map[string]*FuncFacts{
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
	}
	// Transitive fixpoint: iterate until no fact changes. The graph is
	// small (one repository), so a simple round-robin sweep suffices.
	units := p.Units()
	for changed := true; changed; {
		changed = false
		for _, u := range units {
			f := fs.ensure(u.Key)
			for _, callee := range u.calls {
				g := fs.get(callee)
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
