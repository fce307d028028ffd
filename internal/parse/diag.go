package parse

// DiagSpec is the result of a lax (diagnostic-mode) spec parse: the
// best-effort Spec built from the statements that were semantically
// sound, plus every problem encountered along the way. The vet layer
// (internal/vet) builds on this to report all defects of a warehouse
// configuration in one pass instead of stopping at the first.
type DiagSpec struct {
	Spec *Spec
	// Issues are the semantic problems, in source order.
	Issues []Issue
	// ViewLines maps each view name to its declaration line (including
	// views that failed validation and were dropped from the Spec).
	ViewLines map[string]int
	// INDDecls records every successfully added inclusion dependency —
	// both ind and fk statements — with its source line, so constraint
	// diagnostics can point back into the spec.
	INDDecls []INDDecl
}

// Issue is one semantic problem found during a lax parse.
type Issue struct {
	// Line is the 1-based source line of the offending statement
	// (0 when the problem is not attributable to a single line, such as
	// an initial-state constraint violation).
	Line int
	// Subject names the statement's subject: the relation or view name.
	Subject string
	// Err is the underlying error, exactly as strict parsing would have
	// returned it. Typed causes (e.g. *constraint.CycleError) survive
	// errors.As.
	Err error
}

func (i Issue) Error() string { return i.Err.Error() }

// Unwrap exposes the cause to errors.Is / errors.As.
func (i Issue) Unwrap() error { return i.Err }

// INDDecl is one declared inclusion dependency with its source position.
type INDDecl struct {
	From, To string
	Line     int
}

// SpecTextDiag parses a .dw specification in diagnostic mode: statements
// with semantic errors (unknown relations, invalid views, cyclic INDs,
// constraint-violating tuples) are recorded as Issues and dropped, and
// parsing continues so one pass surfaces every defect. Grammar errors
// still abort, since the statement stream cannot be re-synchronized
// after a malformed statement.
func SpecTextDiag(src, dir string) (*DiagSpec, error) {
	ds, err := specParse(src, dir, true)
	if err != nil {
		return nil, err
	}
	ds.Spec.State, _, _ = ds.Spec.loadState(ds.drop) // drop never fails
	return ds, nil
}

// SpecDefs is SpecTextDiag without the data: definitions and their Issues
// (the first is what a strict parse would have stopped at), no file opened,
// Spec.State nil until the caller stores what Spec.LoadState returns — for
// a process that may never need the sources.
func SpecDefs(src, dir string) (*DiagSpec, error) {
	return specParse(src, dir, true)
}
