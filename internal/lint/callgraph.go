package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the whole-repo layer of the dataflow framework: a
// Program wrapping every loaded package, a call graph over all declared
// functions and methods, and the registry of go-statement launch sites.
// Interprocedural analyzers (lockorder, goleak) reach it
// through Pass.Prog; the per-package analyzers ignore it.

// Program is the unit interprocedural analysis runs over: every package
// of one Run call, with lazily built whole-program structures shared by
// all analyzers in the run.
type Program struct {
	Pkgs []*Package

	built     bool
	units     map[string]*FuncUnit // canonical name → declared function
	goSites   []GoSite
	facts     *FactSet
	lockGraph *lockGraph
}

// FuncUnit is one declared function or method: its AST and defining
// package. Function literals are not units — each analyzer that needs
// them (spanend, goleak) resolves them in place, so a closure's effects
// are never mis-attributed to its enclosing function (a closure may run
// on another goroutine, after a lock was released, or never).
type FuncUnit struct {
	Key   string // canonical name, types.Func.FullName()
	Decl  *ast.FuncDecl
	Pkg   *Package
	calls []string // callees' canonical names, outside nested literals

	lockSum *lockSummary // cached by Program.lockSummary
}

// GoSite is one go statement with its enclosing unit.
type GoSite struct {
	Stmt *ast.GoStmt
	Unit *FuncUnit
}

// NewProgram wraps packages for analysis.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs}
}

// FuncKey returns the canonical name used as a call-graph node for fn.
func FuncKey(fn *types.Func) string { return fn.FullName() }

// Units returns every declared function of the program in a stable
// order.
func (p *Program) Units() []*FuncUnit {
	p.build()
	keys := make([]string, 0, len(p.units))
	for k := range p.units {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*FuncUnit, len(keys))
	for i, k := range keys {
		out[i] = p.units[k]
	}
	return out
}

// GoSites returns every go statement of the program.
func (p *Program) GoSites() []GoSite {
	p.build()
	return p.goSites
}

// build populates the call graph once.
func (p *Program) build() {
	if p.built {
		return
	}
	p.built = true
	p.units = make(map[string]*FuncUnit)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				u := &FuncUnit{Key: FuncKey(fn), Decl: fd, Pkg: pkg}
				p.units[u.Key] = u
			}
		}
	}
	for _, u := range p.units {
		p.collect(u)
	}
	sort.Slice(p.goSites, func(i, j int) bool {
		return p.goSites[i].Stmt.Pos() < p.goSites[j].Stmt.Pos()
	})
}

// collect gathers the calls and go statements of one unit's body,
// skipping nested function literals.
func (p *Program) collect(u *FuncUnit) {
	info := u.Pkg.Info
	// The call launched by a go statement runs asynchronously: it is a
	// goroutine entry point, not a synchronous call of the unit (its
	// effects — never returning, holding locks — do not happen in the
	// caller's frame). Its arguments still evaluate here, so only the
	// outermost call expression is excluded.
	launched := make(map[*ast.CallExpr]bool)
	ast.Inspect(u.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			p.goSites = append(p.goSites, GoSite{Stmt: n, Unit: u})
			launched[n.Call] = true
		case *ast.CallExpr:
			if launched[n] {
				return true
			}
			if fn := calleeFunc(info, n); fn != nil {
				u.calls = append(u.calls, FuncKey(fn))
			}
		}
		return true
	})
}

// enclosingFuncLit finds the innermost function literal assigned to the
// local identifier id within body — the `launch := func() {...}` pattern
// goleak resolves when a goroutine is started through a variable. It
// returns nil unless exactly one assignment of a literal to that
// variable exists.
func enclosingFuncLit(info *types.Info, body *ast.BlockStmt, id *ast.Ident) *ast.FuncLit {
	obj := info.Uses[id]
	if obj == nil {
		return nil
	}
	var lit *ast.FuncLit
	count := 0
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			li, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			def := info.Defs[li]
			if def == nil {
				def = info.Uses[li]
			}
			if def != obj {
				continue
			}
			count++
			if fl, ok := as.Rhs[i].(*ast.FuncLit); ok {
				lit = fl
			} else {
				lit = nil
			}
		}
		return true
	})
	if count != 1 {
		return nil
	}
	return lit
}
