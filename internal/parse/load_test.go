package parse

import (
	"fmt"
	"iter"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/workload"
)

// refLoadCSV is loadCSV as it was before loads streamed: ReadCSV into a
// throw-away relation, then a column-aligned copy of every row through
// State.Insert. Kept as the reference the streaming loader is compared
// against (relation's own tests compare ReadCSV with its predecessor).
func refLoadCSV(db *catalog.Database, st *catalog.State, relName, path string, line int) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("line %d: %w", line, err)
	}
	rel, err := relation.ReadCSV(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("line %d: %w", line, err)
	}
	sc, ok := db.Schema(relName)
	if !ok {
		return fmt.Errorf("line %d: load into unknown relation %q: %w", line, relName, algebra.ErrUnknownRelation)
	}
	if !rel.AttrSet().Equal(sc.AttrSet()) {
		return fmt.Errorf("line %d: %s has attributes %v, want %v",
			line, path, rel.AttrSet(), sc.AttrSet())
	}
	names := sc.AttrNames()
	for t := range rel.All() {
		aligned := make(relation.Tuple, len(names))
		for i, a := range names {
			pos, _ := rel.Pos(a)
			aligned[i] = t[pos]
		}
		if _, err := st.Insert(relName, aligned); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	return nil
}

// sameStorage reports whether two relations hold the same tuples, kind for
// kind, in the same storage order.
func sameStorage(a, b *relation.Relation) bool {
	if a.Len() != b.Len() || !a.Equal(b) {
		return false
	}
	next, stop := iter.Pull(b.All())
	defer stop()
	for ta := range a.All() {
		tb, _ := next()
		for i := range ta {
			if ta[i].Kind() != tb[i].Kind() || !ta[i].Equal(tb[i]) {
				return false
			}
		}
	}
	return true
}

// TestStreamingLoadMatchesReference loads generated files into
// R(a int, b string, c float, d any) both ways. The files permute the
// columns, type the header or leave inference to the cells, quote what
// needs quoting, leave cells empty, repeat rows, and — one defect a file —
// name a column R lacks, drop one, break a record's arity, or hold a cell
// R's schema (CheckKind) or the header's type rejects. Both loaders must
// leave equal relations in the same storage order, or fail with the same
// text and the same spec line.
func TestStreamingLoadMatchesReference(t *testing.T) {
	db := catalog.NewDatabase()
	db.MustAddSchema(relation.NewSchema("R", "a:int", "b:string", "c:float", "d"))
	spec := &Spec{DB: db}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(22))
	cells := map[string][]string{
		"a": {"1", "-7", "42", ""},
		"b": {"plain", "with, comma", "two\nlines", `"  led by spaces"`, "", "é✓"},
		"c": {"2.5", "NaN", "-Inf", "1e21", "", "3"},
		"d": {"7", "x", "true", "", "0.5"},
	}
	typed := map[string]string{"a": ":int", "b": ":string", "c": ":float", "d": ":any"}
	quote := func(s string) string {
		if strings.HasPrefix(s, `"`) {
			return s // already a quoted cell
		}
		if strings.ContainsAny(s, ",\n") {
			return `"` + s + `"`
		}
		return s
	}
	failed := 0
	for i := 0; i < 1500; i++ {
		cols := []string{"a", "b", "c", "d"}
		rng.Shuffle(len(cols), func(x, y int) { cols[x], cols[y] = cols[y], cols[x] })
		withTypes := rng.Intn(2) == 0
		fault := -1
		if i%3 == 0 {
			fault = rng.Intn(5)
		}
		header := make([]string, len(cols))
		for k, c := range cols {
			header[k] = c
			// b must be typed or its numeric-looking cells infer as numbers;
			// that is fault 3's job.
			if withTypes || c == "b" {
				header[k] += typed[c]
			}
		}
		switch fault {
		case 0:
			header[rng.Intn(4)] = "zz"
		case 1:
			header, cols = header[:3], cols[:3]
		}
		lines := []string{strings.Join(header, ",")}
		for r, nr := 0, rng.Intn(10); r < nr; r++ {
			rec := make([]string, len(cols))
			for k, c := range cols {
				rec[k] = quote(cells[c][rng.Intn(len(cells[c]))])
			}
			lines = append(lines, strings.Join(rec, ","))
			if rng.Intn(4) == 0 {
				lines = append(lines, lines[len(lines)-1])
			}
		}
		bad := make([]string, len(cols))
		for k, c := range cols {
			bad[k] = quote(cells[c][0])
		}
		switch fault {
		case 2:
			lines = append(lines, strings.Join(bad[:len(bad)-1], ","))
		case 3: // CheckKind: an untyped a-column infers a string R.a cannot hold
			for k, c := range cols {
				if c == "a" {
					header[k], bad[k] = "a", "seven"
				}
			}
			lines[0] = strings.Join(header, ",")
			lines = append(lines, strings.Join(bad, ","))
		case 4: // the header's own type rejects the cell
			for k, c := range cols {
				if c == "a" {
					header[k], bad[k] = "a:int", "7.5"
				}
			}
			lines[0] = strings.Join(header, ",")
			lines = append(lines, strings.Join(bad, ","))
		}
		path := filepath.Join(dir, "r.csv")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		rel := "R"
		if fault < 0 && i%7 == 0 {
			rel = "Nope" // one defect a file: with two, the stream reports the one it meets first
		}
		line := 1 + rng.Intn(50)
		want, got := db.NewState(), db.NewState()
		werr := refLoadCSV(db, want, rel, path, line)
		gerr := loadStmt{rel: rel, path: path, line: line}.run(spec, got).err
		if gerr != nil {
			gerr = fmt.Errorf("line %d: %w", line, gerr) // as loadState reports it
		}
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("file %d (fault %d):\n%s\nstreaming: %v\nreference: %v", i, fault, strings.Join(lines, "\n"), gerr, werr)
		}
		if werr != nil {
			failed++
			continue
		}
		if !sameStorage(got.MustRelation("R"), want.MustRelation("R")) {
			t.Fatalf("file %d:\n%s\nstreaming %v\nreference %v", i, strings.Join(lines, "\n"), got.MustRelation("R"), want.MustRelation("R"))
		}
	}
	if failed < 300 {
		t.Fatalf("only %d of 1500 files failed to load: the corpus lost its faults", failed)
	}
}

// specFiles returns every .dw file under the repository's testdata, by
// path, plus the Section-5 fixture.
func specFiles(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{"workload.Section5Spec": workload.Section5Spec}
	for _, pat := range []string{"../../testdata/*.dw", "../../testdata/vet/*.dw"} {
		paths, err := filepath.Glob(pat)
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: %v, %d files", pat, err, len(paths))
		}
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[p] = string(raw)
		}
	}
	return out
}

// sameSpec compares two parses of one text: definitions by their DSL
// rendering, states by content.
func sameSpec(t *testing.T, what string, a, b *Spec) {
	t.Helper()
	if a.DB.String() != b.DB.String() || fmt.Sprint(a.DB.Constraints().AllDomains()) != fmt.Sprint(b.DB.Constraints().AllDomains()) {
		t.Errorf("%s: databases differ:\n%s\nvs\n%s", what, a.DB, b.DB)
	}
	av, bv := a.Views.Views(), b.Views.Views()
	if len(av) != len(bv) {
		t.Fatalf("%s: %d views vs %d", what, len(av), len(bv))
	}
	for i := range av {
		if av[i].Name != bv[i].Name || av[i].Expr().String() != bv[i].Expr().String() {
			t.Errorf("%s: view %d: %s = %s vs %s = %s", what, i, av[i].Name, av[i].Expr(), bv[i].Name, bv[i].Expr())
		}
	}
	if !a.State.Equal(b.State) {
		t.Errorf("%s: states differ:\n%s\nvs\n%s", what, a.State, b.State)
	}
}

// TestLaxParseWithoutIssuesIsTheStrictParse: the three ways to a Spec —
// strict, lax, definitions first and LoadState later — agree wherever the
// lax parse recorded no Issue, and where it recorded one the strict parse
// stopped at exactly that error.
func TestLaxParseWithoutIssuesIsTheStrictParse(t *testing.T) {
	clean := 0
	for path, src := range specFiles(t) {
		dir := filepath.Dir(path)
		lax, err := SpecTextDiag(src, dir)
		strict, serr := SpecTextAt(src, dir)
		if err != nil { // a grammar error aborts both
			if serr == nil {
				t.Errorf("%s: lax parse aborted (%v), strict parse did not", path, err)
			}
			continue
		}
		if len(lax.Issues) > 0 {
			if serr == nil {
				t.Errorf("%s: lax parse has issues %v, strict parse has none", path, lax.Issues)
			} else if lax.Issues[0].Error() != serr.Error() && !strings.Contains(lax.Issues[0].Error(), "defined twice") {
				t.Errorf("%s: strict parse stopped at %q, first lax issue is %q", path, serr, lax.Issues[0])
			}
			continue
		}
		if serr != nil {
			t.Errorf("%s: strict parse failed (%v) where the lax one found nothing", path, serr)
			continue
		}
		clean++
		sameSpec(t, path+" lax", lax.Spec, strict)
		defs, err := SpecDefs(src, dir)
		if err != nil || len(defs.Issues) > 0 || defs.Spec.State != nil {
			t.Fatalf("%s: SpecDefs: %v, %v, state %v", path, err, defs.Issues, defs.Spec.State)
		}
		if defs.Spec.State, _, err = defs.Spec.LoadState(); err != nil {
			t.Fatalf("%s: LoadState: %v", path, err)
		}
		sameSpec(t, path+" deferred", defs.Spec, strict)
	}
	if clean < 3 {
		t.Fatalf("only %d specs parsed clean", clean)
	}
}

// TestLoadOrderIsSequential: two loads into one relation, one into
// another, inserts and deletes — the concurrent LoadState leaves every
// relation as applying the statements one after the other would, row order
// included, and reads each file once.
func TestLoadOrderIsSequential(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"r1.csv": "a:int,b:string\n1,x\n2,y\n3,z\n",
		"r2.csv": "b:string,a:int\ny,2\nw,4\n",
		"s.csv":  "k:int\n10\n20\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src := `
relation R(a int, b string) key(a)
relation S(k int)
load R from 'r1.csv'
insert R(5, 'v')
load S from 's.csv'
delete R(1, 'x')
load R from 'r2.csv'
delete S(10)
`
	spec, err := SpecTextAt(src, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := spec.DB.NewState()
	for _, ld := range []struct{ rel, file string }{{"R", "r1.csv"}, {"S", "s.csv"}, {"R", "r2.csv"}} {
		if err := refLoadCSV(spec.DB, want, ld.rel, filepath.Join(dir, ld.file), 0); err != nil {
			t.Fatal(err)
		}
	}
	want.MustInsert("R", relation.Int(5), relation.String_("v"))
	if _, err := want.Delete("R", relation.Tuple{relation.Int(1), relation.String_("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := want.Delete("S", relation.Tuple{relation.Int(10)}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"R", "S"} {
		if !sameStorage(spec.State.MustRelation(name), want.MustRelation(name)) {
			t.Errorf("%s:\ngot  %v\nwant %v", name, spec.State.MustRelation(name), want.MustRelation(name))
		}
	}
	_, stats, err := spec.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 7 || stats.Bytes != int64(len(files["r1.csv"])+len(files["r2.csv"])+len(files["s.csv"])) {
		t.Errorf("LoadState read %d rows, %d bytes", stats.Rows, stats.Bytes)
	}
}

// TestLoadErrorsInDeclarationOrder: with several loads failing at once,
// strict parsing reports the first in source order and lax parsing all of
// them in source order, whichever goroutine got to its file first.
func TestLoadErrorsInDeclarationOrder(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.csv"), []byte("a:int\n1\noops\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `
relation A(a int)
relation B(a int)
relation C(a int)
load A from 'bad.csv'
load B from 'missing.csv'
load C from 'bad.csv'
`
	for i := 0; i < 20; i++ {
		_, err := SpecTextAt(src, dir)
		if err == nil || !strings.HasPrefix(err.Error(), "line 5: relation: csv line 3, column a: bad int") {
			t.Fatalf("strict: %v", err)
		}
		ds, err := SpecTextDiag(src, dir)
		if err != nil || len(ds.Issues) != 3 || ds.Issues[0].Line != 5 || ds.Issues[1].Line != 6 || ds.Issues[2].Line != 7 {
			t.Fatalf("lax: %v, issues %v", err, ds.Issues)
		}
		if a := ds.Spec.State.MustRelation("A"); a.Len() != 1 {
			t.Fatalf("lax: A holds %d rows, want the one before the bad cell", a.Len())
		}
	}
}
