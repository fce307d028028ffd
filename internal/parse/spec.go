package parse

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dwcomplement/internal/algebra"
	"dwcomplement/internal/catalog"
	"dwcomplement/internal/par"
	"dwcomplement/internal/relation"
	"dwcomplement/internal/view"
)

// Spec is a parsed .dw warehouse specification: the database definition
// (schemata + constraints), the warehouse view set, and the initial state.
// State is what the spec's load/insert/delete statements build: the eager
// parsers (SpecText, SpecTextAt, SpecTextDiag) do that at once, SpecDefs
// leaves it to a later LoadState.
type Spec struct {
	DB    *catalog.Database
	Views *view.Set
	State *catalog.State

	// The data statements in source order, and the directory relative load
	// paths resolve against ("" = working directory).
	dir              string
	loads            []loadStmt
	inserts, deletes []tupleStmt
}

type loadStmt struct {
	rel, path string
	line      int
}

type tupleStmt struct {
	rel  string
	t    relation.Tuple
	line int
}

// LoadStats is what LoadState read (CSV records and bytes) and how long
// its two halves took.
type LoadStats struct {
	Rows        int
	Bytes       int64
	Load, Check time.Duration
}

// SpecText parses a .dw specification. The statement forms:
//
//	relation Emp(clerk string, age int) key(clerk)
//	ind Sale[clerk] <= Emp[clerk]
//	fk Sale(clerk) -> Emp
//	domain Order_paris: loc = 'paris'
//	view Sold = pi{item,clerk,age}(Sale join Emp)
//	insert Emp('Mary', 23)
//	delete Emp('Mary', 23)
//	load Emp from 'emp.csv'
//
// Lines starting with # are comments. Statements may span lines; they are
// delimited by their grammar, not by newlines. Relative load paths resolve
// against the current working directory; use SpecTextAt to anchor them at
// the spec file's directory.
func SpecText(src string) (*Spec, error) {
	return SpecTextAt(src, "")
}

// SpecTextAt parses a .dw specification with load paths resolved relative
// to dir (empty = current working directory).
func SpecTextAt(src, dir string) (*Spec, error) {
	ds, err := specParse(src, dir, false)
	if err != nil {
		return nil, err
	}
	if ds.Spec.State, _, err = ds.Spec.LoadState(); err != nil {
		return nil, err
	}
	return ds.Spec, nil
}

// specParse parses the definitions of a spec and collects its data
// statements unapplied; it opens no file. Strict: the first semantic error
// aborts. Lax: semantic errors become Issues and parsing continues with
// the offending statement dropped. Grammar errors abort in both modes —
// after a malformed statement the token stream cannot be re-synchronized
// reliably.
func specParse(src, dir string, lax bool) (*DiagSpec, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	ds := &DiagSpec{
		Spec:      &Spec{DB: catalog.NewDatabase(), dir: dir},
		ViewLines: make(map[string]int),
	}
	spec := ds.Spec
	fail := abort
	if lax {
		fail = ds.drop
	}
	var views []*view.PSJ

	for !p.atEOF() {
		kw, err := p.expect(tokIdent, "", "a statement keyword")
		if err != nil {
			return nil, err
		}
		switch kw.text {
		case "relation":
			sc, err := p.parseRelationStmt()
			if err != nil {
				return nil, err
			}
			if err := spec.DB.AddSchema(sc); err != nil {
				if e := fail(kw.line, sc.Name, fmt.Errorf("line %d: %w", kw.line, err)); e != nil {
					return nil, e
				}
			}

		case "ind":
			from, x, to, err := p.parseINDStmt()
			if err != nil {
				return nil, err
			}
			if err := spec.DB.AddIND(from, to, x...); err != nil {
				if e := fail(kw.line, from, fmt.Errorf("line %d: %w", kw.line, err)); e != nil {
					return nil, e
				}
				break
			}
			ds.INDDecls = append(ds.INDDecls, INDDecl{From: from, To: to, Line: kw.line})

		case "fk":
			from, attrs, to, err := p.parseFKStmt()
			if err != nil {
				return nil, err
			}
			if err := spec.DB.AddForeignKey(from, attrs, to); err != nil {
				if e := fail(kw.line, from, fmt.Errorf("line %d: %w", kw.line, err)); e != nil {
					return nil, e
				}
				break
			}
			ds.INDDecls = append(ds.INDDecls, INDDecl{From: from, To: to, Line: kw.line})

		case "domain":
			rel, cond, err := p.parseDomainStmt()
			if err != nil {
				return nil, err
			}
			if err := spec.DB.AddDomain(rel, cond); err != nil {
				if e := fail(kw.line, rel, fmt.Errorf("line %d: %w", kw.line, err)); e != nil {
					return nil, e
				}
			}

		case "view":
			name, err := p.expect(tokIdent, "", "a view name")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "=", "'='"); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, dup := ds.ViewLines[name.text]; !dup {
				ds.ViewLines[name.text] = name.line
			} else if lax {
				ds.Issues = append(ds.Issues, Issue{Line: name.line, Subject: name.text,
					Err: fmt.Errorf("line %d: view %s defined twice", name.line, name.text)})
				break
			}
			v, err := view.FromExpr(name.text, e, spec.DB)
			if err != nil {
				if e := fail(name.line, name.text, fmt.Errorf("line %d: %w", name.line, err)); e != nil {
					return nil, e
				}
				break
			}
			views = append(views, v)

		case "load":
			rel, err := p.expect(tokIdent, "", "a relation name")
			if err != nil {
				return nil, err
			}
			if !p.acceptIdent("from") {
				return nil, fmt.Errorf("line %d: expected 'from'", rel.line)
			}
			path, err := p.expect(tokString, "", "a quoted file path")
			if err != nil {
				return nil, err
			}
			spec.loads = append(spec.loads, loadStmt{rel: rel.text, path: path.text, line: rel.line})

		case "insert", "delete":
			rel, tup, err := p.parseTupleStmt()
			if err != nil {
				return nil, err
			}
			ts := tupleStmt{rel: rel, t: tup, line: kw.line}
			if kw.text == "insert" {
				spec.inserts = append(spec.inserts, ts)
			} else {
				spec.deletes = append(spec.deletes, ts)
			}

		default:
			return nil, fmt.Errorf("line %d: unknown statement %q", kw.line, kw.text)
		}
	}

	vs, err := view.NewSet(spec.DB, views...)
	if err != nil {
		// Lax mode pre-filters duplicates and FromExpr already validated
		// each view, so this only fires in strict mode.
		return nil, err
	}
	spec.Views = vs
	return ds, nil
}

// abort and (*DiagSpec).drop are the two answers to a statement-level
// semantic error: strict parsing returns it, lax parsing records an Issue
// and carries on without the statement.
func abort(_ int, _ string, err error) error { return err }

func (ds *DiagSpec) drop(line int, subject string, err error) error {
	ds.Issues = append(ds.Issues, Issue{Line: line, Subject: subject, Err: err})
	return nil
}

// LoadState builds the initial state the spec's data statements describe,
// strictly: every load (every cell through the schema's CheckKind), then
// every insert, then every delete, then State.Check once; the first error
// in that order is returned. The state is returned, not kept.
func (s *Spec) LoadState() (*catalog.State, LoadStats, error) {
	return s.loadState(abort)
}

// loaded is the outcome of one load statement.
type loaded struct {
	rows  int
	bytes int64
	err   error
}

func (s *Spec) loadState(fail func(line int, subject string, err error) error) (*catalog.State, LoadStats, error) {
	var stats LoadStats
	start := time.Now()
	st := s.DB.NewState()
	// Loads of different relations run side by side, those of one relation
	// in statement order: every relation's storage order is the sequential
	// one.
	var rels []string
	byRel := make(map[string][]int)
	for i, ld := range s.loads {
		if byRel[ld.rel] == nil {
			rels = append(rels, ld.rel)
		}
		byRel[ld.rel] = append(byRel[ld.rel], i)
	}
	done := make([]loaded, len(s.loads))
	_ = par.Do(len(rels), func(g int) error { // the outcomes carry the errors
		for _, i := range byRel[rels[g]] {
			done[i] = s.loads[i].run(s, st)
		}
		return nil
	})
	for i, ld := range s.loads {
		stats.Rows += done[i].rows
		stats.Bytes += done[i].bytes
		if err := done[i].err; err != nil {
			if e := fail(ld.line, ld.rel, fmt.Errorf("line %d: %w", ld.line, err)); e != nil {
				return nil, stats, e
			}
		}
	}
	for i, ts := range slices.Concat(s.inserts, s.deletes) {
		apply := st.Insert
		if i >= len(s.inserts) {
			apply = st.Delete
		}
		if _, err := apply(ts.rel, ts.t); err != nil {
			if e := fail(ts.line, ts.rel, fmt.Errorf("line %d: %w", ts.line, err)); e != nil {
				return nil, stats, e
			}
		}
	}
	stats.Load = time.Since(start)
	err := st.Check()
	stats.Check = time.Since(start) - stats.Load
	if err != nil {
		if e := fail(0, "", fmt.Errorf("initial state: %w", err)); e != nil {
			return nil, stats, e
		}
	}
	return st, stats, nil
}

// run streams one "load R from 'file'" into R's relation of st: the header
// is mapped to the schema's positions once, every record becomes one
// tuple, type-checked and handed over to the relation. The error is the
// first the stream meets — header, relation, then record by record — and
// the rows before it stay (only a lax parse goes on to look at them).
func (ld loadStmt) run(s *Spec, st *catalog.State) (out loaded) {
	path := ld.path
	if s.dir != "" && !filepath.IsAbs(path) {
		path = filepath.Join(s.dir, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return loaded{err: err}
	}
	defer f.Close()
	out.err = relation.ScanCSV(f, func(attrs []string) ([]int, error) {
		sc, ok := s.DB.Schema(ld.rel)
		if !ok {
			return nil, fmt.Errorf("load into unknown relation %q: %w", ld.rel, algebra.ErrUnknownRelation)
		}
		if got := relation.NewAttrSet(attrs...); !got.Equal(sc.AttrSet()) {
			return nil, fmt.Errorf("%s has attributes %v, want %v", path, got, sc.AttrSet())
		}
		pos := make([]int, len(attrs))
		for i, a := range attrs {
			pos[i] = slices.Index(sc.AttrNames(), a)
		}
		return pos, nil
	}, func(t relation.Tuple) error {
		out.rows++
		_, err := st.Insert(ld.rel, t)
		return err
	})
	out.bytes, _ = f.Seek(0, io.SeekCurrent) // what the scan consumed; 0 if the file cannot tell
	return out
}

// UpdateOps parses a sequence of "insert R(...)" / "delete R(...)"
// statements into an Update against the database — the textual update
// syntax cmd/dwctl's maintain command takes. Modification statements
// require a pre-state; use UpdateOpsAt.
func UpdateOps(db *catalog.Database, src string) (*catalog.Update, error) {
	return UpdateOpsAt(db, nil, src)
}

// UpdateOpsAt parses insert/delete/update statements. The update form
//
//	update Emp set age = 24 where clerk = 'Mary'
//
// is the paper's modification case, expanded per footnote 1 into
// delete+insert pairs against the pre-state st (which may be the real
// sources or a warehouse-backed virtual state — the expansion never needs
// anything beyond reading the affected relation). With a nil st,
// modification statements are rejected.
func UpdateOpsAt(db *catalog.Database, st algebra.State, src string) (*catalog.Update, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	u := catalog.NewUpdate()
	for !p.atEOF() {
		kw, err := p.expect(tokIdent, "", "insert, delete or update")
		if err != nil {
			return nil, err
		}
		switch kw.text {
		case "insert", "delete":
			rel, tup, err := p.parseTupleStmt()
			if err != nil {
				return nil, err
			}
			if kw.text == "insert" {
				err = u.Insert(rel, db, tup)
			} else {
				err = u.Delete(rel, db, tup)
			}
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", kw.line, err)
			}
		case "update":
			if st == nil {
				return nil, fmt.Errorf("line %d: modifications need a pre-state (use UpdateOpsAt)", kw.line)
			}
			if err := p.parseModifyStmt(db, st, u, kw.line); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("line %d: expected insert, delete or update, found %q", kw.line, kw.text)
		}
	}
	return u, nil
}

// parseModifyStmt parses "R set a = 1, b = 'x' where cond" after the
// update keyword and expands it against the pre-state.
func (p *parser) parseModifyStmt(db *catalog.Database, st algebra.State, u *catalog.Update, line int) error {
	relTok, err := p.expect(tokIdent, "", "a relation name")
	if err != nil {
		return err
	}
	sc, ok := db.Schema(relTok.text)
	if !ok {
		return fmt.Errorf("line %d: update of unknown relation %q: %w", line, relTok.text, algebra.ErrUnknownRelation)
	}
	if !p.acceptIdent("set") {
		return fmt.Errorf("line %d: expected 'set'", line)
	}
	assignments := map[string]relation.Value{}
	for {
		attr, err := p.expect(tokIdent, "", "an attribute name")
		if err != nil {
			return err
		}
		if !sc.HasAttr(attr.text) {
			return fmt.Errorf("line %d: %s has no attribute %q", line, sc.Name, attr.text)
		}
		if _, err := p.expect(tokPunct, "=", "'='"); err != nil {
			return err
		}
		op, err := p.parseOperand()
		if err != nil {
			return err
		}
		if op.IsAttr {
			return fmt.Errorf("line %d: set %s needs a literal value", line, attr.text)
		}
		if !op.Val.CheckKind(sc.AttrType(attr.text)) {
			return fmt.Errorf("line %d: value %s not valid for %s.%s", line, op.Val, sc.Name, attr.text)
		}
		if _, dup := assignments[attr.text]; dup {
			return fmt.Errorf("line %d: attribute %q set twice", line, attr.text)
		}
		assignments[attr.text] = op.Val
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	var cond algebra.Cond = algebra.True{}
	if p.acceptIdent("where") {
		cond, err = p.parseCond()
		if err != nil {
			return err
		}
		if ca := algebra.CondAttrs(cond); !ca.SubsetOf(sc.AttrSet()) {
			return fmt.Errorf("line %d: where clause references %v outside %s", line, ca.Minus(sc.AttrSet()), sc.Name)
		}
	}

	cur, ok := st.Relation(sc.Name)
	if !ok {
		return fmt.Errorf("line %d: pre-state lacks relation %q", line, sc.Name)
	}
	affected := algebra.SelectCond(cur, cond, nil)
	for t := range affected.All() {
		oldTuple := make(relation.Tuple, len(sc.Attrs))
		newTuple := make(relation.Tuple, len(sc.Attrs))
		for i, a := range sc.Attrs {
			pos, _ := affected.Pos(a.Name)
			oldTuple[i] = t[pos]
			if v, set := assignments[a.Name]; set {
				newTuple[i] = v
			} else {
				newTuple[i] = t[pos]
			}
		}
		if err := u.Delete(sc.Name, db, oldTuple); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if err := u.Insert(sc.Name, db, newTuple); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	return nil
}

// parseRelationStmt parses "Emp(clerk string, age int) key(clerk)" after
// the keyword.
func (p *parser) parseRelationStmt() (*relation.Schema, error) {
	name, err := p.expect(tokIdent, "", "a relation name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "(", "'('"); err != nil {
		return nil, err
	}
	sc := &relation.Schema{Name: name.text}
	for {
		attr, err := p.expect(tokIdent, "", "an attribute name")
		if err != nil {
			return nil, err
		}
		a := relation.Attribute{Name: attr.text}
		if t := p.peek(); t.kind == tokIdent {
			kind, ok := relation.KindFromName(t.text)
			if !ok {
				return nil, fmt.Errorf("line %d: unknown attribute type %q", t.line, t.text)
			}
			p.advance()
			a.Type = kind
		}
		sc.Attrs = append(sc.Attrs, a)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")", "')'"); err != nil {
		return nil, err
	}
	if p.acceptIdent("key") {
		if _, err := p.expect(tokPunct, "(", "'('"); err != nil {
			return nil, err
		}
		for {
			attr, err := p.expect(tokIdent, "", "a key attribute")
			if err != nil {
				return nil, err
			}
			sc.Key = append(sc.Key, attr.text)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokPunct, ")", "')'"); err != nil {
			return nil, err
		}
	}
	return sc, sc.Validate()
}

// parseINDStmt parses "Sale[clerk] <= Emp[clerk]" after the keyword.
func (p *parser) parseINDStmt() (from string, attrs []string, to string, err error) {
	f, err := p.expect(tokIdent, "", "a relation name")
	if err != nil {
		return "", nil, "", err
	}
	lhs, err := p.parseBracketAttrs()
	if err != nil {
		return "", nil, "", err
	}
	if _, err := p.expect(tokPunct, "<=", "'<='"); err != nil {
		return "", nil, "", err
	}
	t, err := p.expect(tokIdent, "", "a relation name")
	if err != nil {
		return "", nil, "", err
	}
	rhs, err := p.parseBracketAttrs()
	if err != nil {
		return "", nil, "", err
	}
	if !relation.NewAttrSet(lhs...).Equal(relation.NewAttrSet(rhs...)) {
		return "", nil, "", fmt.Errorf("line %d: inclusion dependency attribute sets differ: %v vs %v", f.line, lhs, rhs)
	}
	return f.text, lhs, t.text, nil
}

func (p *parser) parseBracketAttrs() ([]string, error) {
	if _, err := p.expect(tokPunct, "[", "'['"); err != nil {
		return nil, err
	}
	var attrs []string
	for {
		a, err := p.expect(tokIdent, "", "an attribute name")
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, a.text)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, "]", "']'"); err != nil {
		return nil, err
	}
	return attrs, nil
}

// parseFKStmt parses "Sale(clerk) -> Emp" after the keyword.
func (p *parser) parseFKStmt() (from string, attrs []string, to string, err error) {
	f, err := p.expect(tokIdent, "", "a relation name")
	if err != nil {
		return "", nil, "", err
	}
	if _, err := p.expect(tokPunct, "(", "'('"); err != nil {
		return "", nil, "", err
	}
	for {
		a, err := p.expect(tokIdent, "", "an attribute name")
		if err != nil {
			return "", nil, "", err
		}
		attrs = append(attrs, a.text)
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")", "')'"); err != nil {
		return "", nil, "", err
	}
	if _, err := p.expect(tokPunct, "->", "'->'"); err != nil {
		return "", nil, "", err
	}
	t, err := p.expect(tokIdent, "", "a relation name")
	if err != nil {
		return "", nil, "", err
	}
	return f.text, attrs, t.text, nil
}

// parseDomainStmt parses "Order_paris: loc = 'paris'" after the keyword.
// The condition extends to the end of the enclosing condition grammar.
func (p *parser) parseDomainStmt() (string, algebra.Cond, error) {
	rel, err := p.expect(tokIdent, "", "a relation name")
	if err != nil {
		return "", nil, err
	}
	if _, err := p.expect(tokPunct, ":", "':'"); err != nil {
		return "", nil, err
	}
	cond, err := p.parseCond()
	if err != nil {
		return "", nil, err
	}
	return rel.text, cond, nil
}

// parseTupleStmt parses "Emp('Mary', 23)" after insert/delete.
func (p *parser) parseTupleStmt() (string, relation.Tuple, error) {
	rel, err := p.expect(tokIdent, "", "a relation name")
	if err != nil {
		return "", nil, err
	}
	if _, err := p.expect(tokPunct, "(", "'('"); err != nil {
		return "", nil, err
	}
	var t relation.Tuple
	for {
		tok := p.peek()
		switch tok.kind {
		case tokNumber:
			p.advance()
			v, err := parseNumber(tok.text)
			if err != nil {
				return "", nil, fmt.Errorf("line %d: %v", tok.line, err)
			}
			t = append(t, v)
		case tokString:
			p.advance()
			t = append(t, relation.String_(tok.text))
		case tokIdent:
			p.advance()
			switch tok.text {
			case "true":
				t = append(t, relation.Bool(true))
			case "false":
				t = append(t, relation.Bool(false))
			case "null":
				t = append(t, relation.Null())
			default:
				return "", nil, fmt.Errorf("line %d: unexpected identifier %q in tuple (quote strings)", tok.line, tok.text)
			}
		default:
			return "", nil, fmt.Errorf("line %d: expected a literal, found %s", tok.line, tok)
		}
		if p.accept(tokPunct, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokPunct, ")", "')'"); err != nil {
		return "", nil, err
	}
	return rel.text, t, nil
}
