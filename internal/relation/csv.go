package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// WriteCSV writes the relation as CSV: a header row of "name:type" cells
// (types inferred per column from the data when uniform, "any" otherwise)
// followed by one row per tuple in deterministic order. NULLs serialize as
// empty cells; strings pass through verbatim (CSV quoting handles commas).
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, r.Arity())
	for i, a := range r.attrs {
		kind := r.columnKind(i)
		if kind == KindNull {
			header[i] = a + ":any"
		} else {
			header[i] = a + ":" + kind.String()
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, t := range r.SortedTuples() {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = csvCell(v)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// columnKind returns the uniform kind of column i, or KindNull when the
// column is empty or mixed.
func (r *Relation) columnKind(i int) Kind {
	kind := KindNull
	for t := range r.All() {
		k := t[i].Kind()
		if k == KindNull {
			continue
		}
		if kind == KindNull {
			kind = k
			continue
		}
		if kind != k {
			return KindNull
		}
	}
	return kind
}

func csvCell(v Value) string {
	if v.IsNull() {
		return ""
	}
	return v.String()
}

// ReadCSV parses a relation from CSV written by WriteCSV (or by hand): the
// header declares "name" or "name:type" columns; typed columns parse their
// cells accordingly, untyped columns infer int → float → bool → string per
// cell. Empty cells are NULL.
func ReadCSV(rd io.Reader) (*Relation, error) {
	var out *Relation
	err := ScanCSV(rd, func(attrs []string) ([]int, error) {
		out = New(attrs...)
		return nil, nil
	}, func(t Tuple) error {
		out.Insert(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanCSV is the record loop under ReadCSV and the spec loader. header is
// called once with the column names and returns, per column, the position
// its cells take in a row's tuple (nil: the column's own); row is called
// for every record, in file order, with the record's tuple — one tuple,
// refilled for every record, so the callee copies what it keeps (Insert
// does). An error from either callback ends the scan and is returned as
// is.
func ScanCSV(rd io.Reader, header func(attrs []string) ([]int, error), row func(Tuple) error) error {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true // "a, 2" parses the cell as "2"; quote to keep spaces
	cr.ReuseRecord = true      // the cells of a record are parsed into its tuple before the next Read
	head, err := cr.Read()
	if err != nil {
		return fmt.Errorf("relation: csv header: %w", err)
	}
	attrs := make([]string, len(head))
	kinds := make([]Kind, len(head))
	for i, h := range head {
		name, typeName, hasType := strings.Cut(strings.TrimSpace(h), ":")
		if name == "" || slices.Contains(attrs[:i], name) {
			return fmt.Errorf("relation: csv header: empty or duplicate column name %q", name)
		}
		attrs[i] = name
		kinds[i] = KindNull
		if hasType {
			k, ok := KindFromName(strings.TrimSpace(typeName))
			if !ok {
				return fmt.Errorf("relation: csv header: unknown type %q", typeName)
			}
			kinds[i] = k
		}
	}
	pos, err := header(attrs)
	if err != nil {
		return err
	}
	if pos == nil {
		pos = make([]int, len(attrs))
		for i := range pos {
			pos[i] = i
		}
	}
	t := make(Tuple, len(attrs))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("relation: csv line %d: %w", line, err)
		}
		if len(rec) != len(attrs) {
			return fmt.Errorf("relation: csv line %d: %d cells, want %d", line, len(rec), len(attrs))
		}
		for i, cell := range rec {
			v, err := parseCSVCell(cell, kinds[i])
			if err != nil {
				return fmt.Errorf("relation: csv line %d, column %s: %w", line, attrs[i], err)
			}
			t[pos[i]] = v
		}
		if err := row(t); err != nil {
			return err
		}
	}
}

func parseCSVCell(cell string, kind Kind) (Value, error) {
	if cell == "" {
		return Null(), nil
	}
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad int %q", cell)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad float %q", cell)
		}
		return Float(f), nil
	case KindBool:
		b, err := strconv.ParseBool(cell)
		if err != nil {
			return Value{}, fmt.Errorf("bad bool %q", cell)
		}
		return Bool(b), nil
	case KindString:
		return String_(cell), nil
	default: // untyped: infer
		if i, err := strconv.ParseInt(cell, 10, 64); err == nil {
			return Int(i), nil
		}
		if f, err := strconv.ParseFloat(cell, 64); err == nil {
			return Float(f), nil
		}
		if b, err := strconv.ParseBool(cell); err == nil {
			return Bool(b), nil
		}
		return String_(cell), nil
	}
}
