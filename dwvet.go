package dwc

import (
	"dwcomplement/internal/core"
	"dwcomplement/internal/parse"
	"dwcomplement/internal/vet"
)

// Static verification (DESIGN.md §10). Vet decides, from schemata,
// constraints, and view definitions alone, whether a warehouse
// configuration is sound: PSJ view well-formedness, IND acyclicity
// (with the cycle path), per-relation key-cover analysis (Theorem 2.2),
// and the query-independence verdict (Theorem 3.1).
type (
	// VetDiagnostic is one finding about a warehouse definition.
	VetDiagnostic = vet.Diagnostic
	// VetSeverity grades a finding: VetInfo, VetWarning, or VetError.
	VetSeverity = vet.Severity
	// DiagSpec is a .dw specification parsed in diagnostic (lax) mode:
	// the surviving Spec plus every problem found along the way.
	DiagSpec = parse.DiagSpec
)

// Severity levels of VetDiagnostic.
const (
	VetInfo    = vet.Info
	VetWarning = vet.Warning
	VetError   = vet.Error
)

var (
	// Vet statically verifies a database + view set pair.
	Vet = vet.Check
	// VetSpec statically verifies a diagnostic-mode parsed specification.
	VetSpec = vet.CheckSpec
	// VetHasErrors reports whether any diagnostic is an error — the
	// condition under which dwserve refuses a config.
	VetHasErrors = vet.HasErrors
	// RenderVet formats diagnostics one per line.
	RenderVet = vet.Render
	// ParseSpecDiag parses a .dw specification in diagnostic mode,
	// collecting semantic problems instead of stopping at the first.
	ParseSpecDiag = parse.SpecTextDiag
	// ParseSpecDefs is ParseSpecDiag without the data: the definitions and
	// their Issues, no file opened; Spec.LoadState reads the sources when —
	// and if — the caller needs them.
	ParseSpecDefs = parse.SpecDefs
)

// VetSpecAt parses src in diagnostic mode (load paths resolved relative
// to dir) and returns every finding. Grammar errors abort with err; all
// semantic problems come back as diagnostics.
func VetSpecAt(src, dir string) ([]VetDiagnostic, error) {
	ds, err := parse.SpecTextDiag(src, dir)
	if err != nil {
		return nil, err
	}
	return vet.CheckSpec(ds, core.Theorem22()), nil
}
