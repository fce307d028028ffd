package dwc_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSourceRules holds every non-test file of the module to two rules,
// read from the syntax alone (no type checking):
//
//   - senterr: an fmt.Errorf whose format says "unknown relation",
//     "schema mismatch" or "arity mismatch" wraps, with %w, the sentinel
//     that phrase implies, so errors.Is(err, dwc.ErrUnknownRelation) and
//     errors.Is(err, dwc.ErrSchemaMismatch) hold whichever layer built it;
//   - httpctx: code under internal/ builds its HTTP requests with a
//     context (http.NewRequestWithContext + Client.Do), never with
//     http.Get, Head, Post, PostForm or NewRequest nor an http.Client's
//     Get, Head, Post or PostForm, so deadlines and cancellation reach a
//     remote that stops answering. A Get, Head, Post or PostForm that may
//     be a client's (see nonClient) is a violation, and no type of the
//     module embeds or aliases http.Client.
func TestSourceRules(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []sourcePackage
	err = filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if _, mod := os.Stat(filepath.Join(dir, "go.mod")); dir != "." && (mod == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir // test data, hidden, or a module of its own
		}
		p := sourcePackage{dir: filepath.ToSlash(dir), fset: token.NewFileSet()}
		paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, path := range paths {
			if f, err := parser.ParseFile(p.fset, path, nil, 0); err != nil {
				return err
			} else if !strings.HasSuffix(path, "_test.go") {
				p.files = append(p.files, f)
			}
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil || len(pkgs) < 20 {
		t.Fatalf("walked %d directories: %v", len(pkgs), err)
	}
	ix := indexTypes(strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module")), pkgs)
	for _, p := range pkgs {
		for _, msg := range ix.sourceRules(p) {
			t.Error(msg)
		}
	}
}

// TestSourceRulesFind: the rules report each kind of site they exist for,
// the lines marked "want" below, and no other.
func TestSourceRulesFind(t *testing.T) {
	fixture := map[string]string{"internal/p": `package p

import (
	"fmt"
	web "net/http"

	"m/internal/q"
)

type c struct{ hc *web.Client }

type embeds struct{ *web.Client } // want

type alias = web.Client // want

type getter interface{ Get(string) (*web.Response, error) }

type wrap struct{ getter }

var shared = web.DefaultClient

func newClient() *web.Client { return &web.Client{} }

func f[G getter](x c, name string, r *web.Request, row q.Row, g q.Getter, w wrap, gp G) {
	_ = fmt.Errorf("unknown relation %q", name) // want
	_ = fmt.Errorf("schema mismatch: %w", ErrUnknownRelation) // want
	_ = fmt.Errorf("arity mismatch: %w", ErrSchemaMismatch)
	_ = fmt.Errorf("Unknown relation %q: %w", name, ErrUnknownRelation)
	web.Get("u") // want
	web.Head("u") // want
	web.Post("u", "", nil) // want
	web.PostForm("u", nil) // want
	web.NewRequest("GET", "u", nil) // want
	web.DefaultClient.Get("u") // want
	x.hc.Post("u", "", nil) // want
	cl := newClient()
	cl.Get("u") // want
	q.Default.Head("u") // want
	(&web.Client{}).PostForm("u", nil) // want
	shared.Get("u") // want
	g.Get("u") // want
	w.Get("u") // want
	gp.Get("u") // want
	get := x.hc.Get // want
	_ = get
	web.NewRequestWithContext(nil, "GET", "u", nil)
	x.hc.Do(nil)
	r.Header.Get("k")
	vals := r.URL.Query()
	vals.Get("k")
	row.Get("a")
	row.Get("a", 1)
	q.Get("u")
}
`, "internal/q": `package q

import "net/http"

type Row struct{ vals []string }

func (Row) Get(string, ...int) string { return "" }

type Getter interface{ Get(string) (*http.Response, error) }

var Default = http.DefaultClient

func Get(string) {}
`}
	var pkgs []sourcePackage
	var want []string
	for _, dir := range []string{"internal/p", "internal/q"} {
		p := sourcePackage{dir: dir, fset: token.NewFileSet()}
		f, err := parser.ParseFile(p.fset, dir+"/x.go", fixture[dir], 0)
		if err != nil {
			t.Fatal(err)
		}
		p.files = []*ast.File{f}
		pkgs = append(pkgs, p)
		for i, line := range strings.Split(fixture[dir], "\n") {
			if strings.HasSuffix(line, "// want") {
				want = append(want, fmt.Sprintf("%s/x.go:%d", dir, i+1))
			}
		}
	}
	ix := indexTypes("m", pkgs)
	var got []string
	for _, p := range pkgs {
		for _, msg := range ix.sourceRules(p) {
			got = append(got, strings.Join(strings.SplitN(msg, ":", 3)[:2], ":"))
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("found sites\n%s\nwant\n%s", strings.Join(got, " "), strings.Join(want, " "))
	}
}

// sourcePackage is one directory's non-test files.
type sourcePackage struct {
	dir   string // slash-separated, relative to the module root
	fset  *token.FileSet
	files []*ast.File
}

var sentinelPhrases = []struct{ phrase, sentinel string }{
	{"unknown relation", "ErrUnknownRelation"},
	{"schema mismatch", "ErrSchemaMismatch"},
	{"arity mismatch", "ErrSchemaMismatch"},
}

// clientMethods are the http.Client methods that send a request without a
// context, with the number of arguments each takes.
var clientMethods = map[string]int{"Get": 1, "Head": 1, "Post": 3, "PostForm": 2}

// nonClientFields are the fields of net/http's types whose values have a
// Get method and are not clients: an http.Header or a url.Values.
var nonClientFields = map[string]bool{"Header": true, "Trailer": true, "Form": true, "PostForm": true}

// typeIndex is what httpctx knows of the module's named types.
type typeIndex struct {
	module string
	// open holds, under "dir.Name", whether the type may have a method
	// the syntax does not show: an interface, or a struct that embeds a
	// field. Every type the module declares is present.
	open map[string]bool
}

func indexTypes(module string, pkgs []sourcePackage) *typeIndex {
	ix := &typeIndex{module: module, open: map[string]bool{}}
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					st, isStruct := ts.Type.(*ast.StructType)
					_, isInterface := ts.Type.(*ast.InterfaceType)
					ix.open[p.dir+"."+ts.Name.Name] = isInterface || isStruct && embeds(st)
				}
				return true
			})
		}
	}
	return ix
}

func embeds(st *ast.StructType) bool {
	for _, fd := range st.Fields.List {
		if len(fd.Names) == 0 {
			return true
		}
	}
	return false
}

// sourceRules returns the violations of both rules in one package, in
// source order.
func (ix *typeIndex) sourceRules(p sourcePackage) []string {
	library := strings.Contains("/"+p.dir+"/", "/internal/")
	vars := map[string]*ast.ValueSpec{} // the package-level variables, for names no file-local scope resolves
	for _, f := range p.files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						vars[id.Name] = spec.(*ast.ValueSpec)
					}
				}
			}
		}
	}
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, p.fset.Position(pos).String()+": "+fmt.Sprintf(format, args...))
	}
	for _, f := range p.files {
		fmtName, h := importName(f, "fmt"), importName(f, "net/http")
		r := &receivers{ix: ix, dir: p.dir, file: f, vars: vars}
		notClientCall := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if want, ok := clientMethods[sel.Sel.Name]; ok && len(n.Args) != want {
						notClientCall[sel] = true
					}
				}
				if fmtName == "" || !isSel(n.Fun, fmtName, "Errorf") || len(n.Args) == 0 {
					return true
				}
				if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					format, _ := strconv.Unquote(lit.Value)
					for _, sp := range sentinelPhrases {
						if strings.Contains(strings.ToLower(format), sp.phrase) &&
							!(strings.Contains(format, "%w") && mentions(n.Args[1:], sp.sentinel)) {
							report(n.Pos(), "senterr: error says %q but does not wrap %s with %%w", sp.phrase, sp.sentinel)
						}
					}
				}
			case *ast.StructType:
				for _, fd := range n.Fields.List {
					if len(fd.Names) == 0 && h != "" && isSel(stripStars(fd.Type), h, "Client") {
						report(fd.Pos(), "httpctx: embedding http.Client promotes its context-free methods")
					}
				}
			case *ast.TypeSpec:
				if n.Assign.IsValid() && h != "" && isSel(stripStars(n.Type), h, "Client") {
					report(n.Pos(), "httpctx: an alias of http.Client hides its context-free methods")
				}
			case *ast.SelectorExpr:
				_, method := clientMethods[n.Sel.Name]
				if !library || !method && n.Sel.Name != "NewRequest" || notClientCall[n] {
					return true
				}
				if id, ok := n.X.(*ast.Ident); ok && id.Obj == nil && importPath(f, id.Name) != "" {
					if id.Name == h {
						report(n.Pos(), "httpctx: context-free %s.%s: use http.NewRequestWithContext", id.Name, n.Sel.Name)
					}
					return true // another package's function
				}
				if method && !r.nonClient(n.X, 0) {
					report(n.Pos(), "httpctx: %s on a receiver that may be an http.Client: use NewRequestWithContext + Client.Do", n.Sel.Name)
				}
			}
			return true
		})
	}
	return out
}

// receivers classifies the receivers of one file's calls.
type receivers struct {
	ix   *typeIndex
	dir  string
	file *ast.File
	vars map[string]*ast.ValueSpec
}

// nonClient reports whether the syntax shows that e is not an http.Client:
// a Header, Trailer, Form or PostForm field, a URL's Query(), a literal,
// or a variable declared with a type that is neither http.Client nor open,
// or assigned one of these. Anything else, a call's result or another
// package's variable included, may be a client.
func (r *receivers) nonClient(e ast.Expr, depth int) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return nonClientFields[x.Sel.Name]
	case *ast.CallExpr:
		sel, ok := x.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Query" && len(x.Args) == 0
	case *ast.BasicLit:
		return true
	case *ast.CompositeLit:
		return r.nonClientType(x.Type)
	case *ast.UnaryExpr:
		lit, ok := x.X.(*ast.CompositeLit)
		return ok && x.Op == token.AND && r.nonClientType(lit.Type)
	case *ast.Ident:
		if depth > 8 {
			return false
		}
		var decl any = r.vars[x.Name]
		if x.Obj != nil {
			decl = x.Obj.Decl
		}
		switch d := decl.(type) {
		case *ast.Field:
			return r.nonClientType(d.Type)
		case *ast.ValueSpec:
			for i, id := range d.Names {
				if id.Name == x.Name && d.Type != nil {
					return r.nonClientType(d.Type)
				} else if id.Name == x.Name && len(d.Values) == len(d.Names) {
					return r.nonClient(d.Values[i], depth+1)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range d.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == x.Name && len(d.Rhs) == len(d.Lhs) {
					return r.nonClient(d.Rhs[i], depth+1)
				}
			}
		}
	}
	return false
}

// nonClientType reports whether a value of type t is not an http.Client
// and has only the methods the syntax shows: a predeclared type, a type of
// the module that is not open, or another package's type but net/http's
// Client. A type parameter may be anything its constraint allows.
func (r *receivers) nonClientType(t ast.Expr) bool {
	switch x := stripStars(t).(type) {
	case *ast.Ident:
		open, declared := r.ix.open[r.dir+"."+x.Name]
		return declared && !open || !declared && predeclared[x.Name]
	case *ast.SelectorExpr:
		pkg, _ := x.X.(*ast.Ident)
		if pkg == nil {
			return false
		}
		switch path := importPath(r.file, pkg.Name); {
		case path == "net/http":
			return x.Sel.Name != "Client"
		case path == r.ix.module || strings.HasPrefix(path, r.ix.module+"/"):
			dir := strings.TrimPrefix(strings.TrimPrefix(path, r.ix.module), "/")
			if dir == "" {
				dir = "."
			}
			open, declared := r.ix.open[dir+"."+x.Sel.Name]
			return declared && !open
		default:
			return path != ""
		}
	case *ast.InterfaceType:
		return false
	case *ast.StructType:
		return !embeds(x)
	}
	return true // a map, slice, array, channel or function type
}

var predeclared = map[string]bool{
	"bool": true, "byte": true, "complex64": true, "complex128": true, "error": true, "float32": true,
	"float64": true, "int": true, "int8": true, "int16": true, "int32": true, "int64": true, "rune": true,
	"string": true, "uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true, "uintptr": true,
}

func stripStars(e ast.Expr) ast.Expr {
	for {
		s, ok := e.(*ast.StarExpr)
		if !ok {
			return e
		}
		e = s.X
	}
}

// importPath is the path of the package f imports under name, or "".
func importPath(f *ast.File, name string) string {
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if imp.Name != nil && imp.Name.Name == name || imp.Name == nil && p[strings.LastIndex(p, "/")+1:] == name {
			return p
		}
	}
	return ""
}

// importName is the name f refers to the package at path by, or "".
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path && imp.Name != nil {
			return imp.Name.Name
		} else if p == path {
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// isSel reports whether e is pkg.name.
func isSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// mentions reports whether any of args names the identifier name, bare or
// package-qualified.
func mentions(args []ast.Expr, name string) bool {
	found := false
	for _, a := range args {
		ast.Inspect(a, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			found = found || (ok && id.Name == name)
			return !found
		})
	}
	return found
}
