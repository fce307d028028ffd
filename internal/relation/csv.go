package relation

import (
	"encoding/csv"
	"fmt"
	"io"
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
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true // "a, 2" parses the cell as "2"; quote to keep spaces
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: csv header: %w", err)
	}
	attrs := make([]string, len(header))
	kinds := make([]Kind, len(header))
	for i, h := range header {
		name, typeName, hasType := strings.Cut(strings.TrimSpace(h), ":")
		attrs[i] = name
		kinds[i] = KindNull
		if hasType {
			k, ok := KindFromName(strings.TrimSpace(typeName))
			if !ok {
				return nil, fmt.Errorf("relation: csv header: unknown type %q", typeName)
			}
			kinds[i] = k
		}
	}
	out := New(attrs...)
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: csv line %d: %w", line, err)
		}
		if len(row) != len(attrs) {
			return nil, fmt.Errorf("relation: csv line %d: %d cells, want %d", line, len(row), len(attrs))
		}
		t := make(Tuple, len(row))
		for i, cell := range row {
			v, err := parseCSVCell(cell, kinds[i])
			if err != nil {
				return nil, fmt.Errorf("relation: csv line %d, column %s: %w", line, attrs[i], err)
			}
			t[i] = v
		}
		out.Insert(t)
	}
	return out, nil
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
