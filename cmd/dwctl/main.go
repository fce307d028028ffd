// Command dwctl drives the complement machinery from a .dw warehouse
// specification: validate it, compute complements and inverse mappings,
// translate and answer source queries against the warehouse, apply updates
// with warehouse-only incremental maintenance, and reconstruct base
// relations.
//
// Usage:
//
//	dwctl -spec warehouse.dw [-prop22] [-prefix C_] <command> [args]
//
// Commands:
//
//	vet [file.dw]             statically verify the spec: view well-formedness,
//	                          IND acyclicity (with the cycle path), key-cover
//	                          analysis and the query-independence verdict;
//	                          exit 1 iff any error-severity finding
//	check                     validate the spec, constraints and initial state
//	dump                      print schemata, constraints, views and data
//	complement                print the complement, covers and inverse mapping
//	translate <expr>          translate a source query and answer it
//	maintain <ops...>         apply updates ("insert R(1,'x')", "delete R(2,'y')",
//	                          "update R set x = 1 where y > 2") incrementally
//	                          and print the new warehouse state
//	snapshot                  persist the warehouse state (-save file)
//	promote <url>             fenced failover: make the dwserve replica at
//	                          <url> the leader for the next epoch (no -spec)
//	repl                      interactive session (query/insert/delete/show)
//	specify                   print the full Section 5 specification document
//	verify                    check reconstruction + injectivity on random states
//	reconstruct               recompute every base relation through W⁻¹
//	export <dir>              write reconstructed base relations as CSV
//
// With -state the warehouse state is restored from a snapshot instead of
// being materialized from the spec's data, and with -save it is persisted
// after the command — so successive maintain invocations operate a
// long-lived warehouse without ever touching the sources:
//
//	dwctl -spec f.dw -save wh.snap snapshot
//	dwctl -spec f.dw -state wh.snap -save wh.snap maintain "insert Sale('PC','Zoe')"
//
// Example:
//
//	dwctl -spec figure1.dw translate "pi{clerk}(Sale) union pi{clerk}(Emp)"
//	dwctl -spec figure1.dw maintain "insert Sale('Computer', 'Paula')"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	dwc "dwcomplement"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dwctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dwctl", flag.ContinueOnError)
	specPath := fs.String("spec", "", "path to the .dw warehouse specification (required)")
	prop22 := fs.Bool("prop22", false, "ignore integrity constraints (Proposition 2.2 instead of Theorem 2.2)")
	prefix := fs.String("prefix", "C_", "name prefix for complement relations")
	stateFile := fs.String("state", "", "load the warehouse state from this snapshot instead of materializing the spec's data")
	saveFile := fs.String("save", "", "persist the warehouse state to this snapshot after the command")
	fs.Usage = func() {
		fmt.Fprintln(out, "usage: dwctl -spec file.dw [-prop22] [-prefix C_] [-state snap] [-save snap] <vet|check|dump|complement|translate|maintain|snapshot|promote|specify|verify|reconstruct|export|repl> [args]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := dwc.Theorem22()
	if *prop22 {
		opts = dwc.Proposition22()
	}
	opts.NamePrefix = *prefix

	// vet dispatches before the strict spec parse below: its whole point
	// is to report every defect of a broken config in one pass, where the
	// strict parser would abort at the first. It also accepts the spec as
	// a positional argument: dwctl vet file.dw.
	if fs.NArg() > 0 && fs.Arg(0) == "vet" {
		path := *specPath
		if path == "" && fs.NArg() > 1 {
			path = fs.Arg(1)
		}
		if path == "" {
			fs.Usage()
			return fmt.Errorf("vet needs a spec: dwctl vet file.dw or dwctl -spec file.dw vet")
		}
		return runVet(path, opts, out)
	}

	// promote also dispatches before the spec parse: it talks to a running
	// dwserve replica over HTTP and needs no spec at all.
	if fs.NArg() > 0 && fs.Arg(0) == "promote" {
		if fs.NArg() < 2 {
			return fmt.Errorf("promote needs a replica URL: dwctl promote http://replica:8080")
		}
		return runPromote(fs.Arg(1), out)
	}

	if *specPath == "" || fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("a -spec file and a command are required")
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	spec, err := dwc.ParseSpecAt(string(raw), filepath.Dir(*specPath))
	if err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}

	// buildW materializes the warehouse from the spec's data, or restores
	// it from a snapshot when -state is given; persist saves it back when
	// -save is given.
	buildW := func() (*dwc.Warehouse, error) {
		comp, err := dwc.ComputeComplement(spec.DB, spec.Views, opts)
		if err != nil {
			return nil, err
		}
		w := dwc.NewWarehouse(comp)
		if *stateFile != "" {
			ms, err := dwc.LoadSnapshot(*stateFile)
			if err != nil {
				return nil, err
			}
			if err := dwc.VerifySnapshot(ms, comp.Resolver()); err != nil {
				return nil, err
			}
			w.LoadState(ms)
			return w, nil
		}
		if err := w.Initialize(spec.State); err != nil {
			return nil, err
		}
		return w, nil
	}
	persist := func(w *dwc.Warehouse) error {
		if *saveFile == "" {
			return nil
		}
		if err := dwc.SaveSnapshot(*saveFile, w.State()); err != nil {
			return err
		}
		fmt.Fprintf(out, "state saved to %s\n", *saveFile)
		return nil
	}

	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "check":
		if err := spec.DB.Validate(); err != nil {
			return err
		}
		if err := spec.State.Check(); err != nil {
			return err
		}
		comp, err := dwc.ComputeComplement(spec.DB, spec.Views, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "ok: %d relation(s), %d view(s), %d stored complement(s), %d initial tuple(s)\n",
			len(spec.DB.Names()), spec.Views.Len(), len(comp.StoredEntries()), spec.State.Size())
		return nil

	case "dump":
		fmt.Fprint(out, spec.DB.String())
		fmt.Fprintln(out, spec.Views)
		fmt.Fprint(out, spec.State)
		return nil

	case "complement":
		comp, err := dwc.ComputeComplement(spec.DB, spec.Views, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, comp)
		for _, e := range comp.Entries() {
			if len(e.Covers) == 0 {
				continue
			}
			parts := make([]string, len(e.Covers))
			for i, cv := range e.Covers {
				parts[i] = cv.String()
			}
			fmt.Fprintf(out, "covers(%s) = {%s}\n", e.Base, strings.Join(parts, ", "))
		}
		return nil

	case "translate":
		if len(rest) != 1 {
			return fmt.Errorf("translate takes exactly one expression argument")
		}
		q, err := dwc.ParseExpr(rest[0])
		if err != nil {
			return err
		}
		w, err := buildW()
		if err != nil {
			return err
		}
		qHat, err := w.TranslateQuery(q)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Q  =", q)
		fmt.Fprintln(out, "Q̂  =", qHat)
		rows, err := dwc.Answer(context.Background(), w, q)
		if err != nil {
			return err
		}
		fmt.Fprint(out, rows.Relation())
		return nil

	case "maintain":
		if len(rest) == 0 {
			return fmt.Errorf("maintain takes update statements, e.g. \"insert Sale('Computer', 'Paula')\"")
		}
		w, err := buildW()
		if err != nil {
			return err
		}
		u, err := dwc.ParseUpdateOpsAt(spec.DB,
			dwc.NewVirtualState(w.Complement(), w), strings.Join(rest, "\n"))
		if err != nil {
			return err
		}
		stats, err := dwc.Refresh(context.Background(), dwc.NewMaintainer(w.Complement()), w, u)
		if err != nil {
			return err
		}
		printRefresh(out, "applied", stats)
		fmt.Fprintln(out)
		for _, name := range w.Names() {
			r, _ := w.Relation(name)
			fmt.Fprintf(out, "%s:\n%s\n", name, r)
		}
		return persist(w)

	case "snapshot":
		w, err := buildW()
		if err != nil {
			return err
		}
		if *saveFile == "" {
			return fmt.Errorf("snapshot requires -save <file>")
		}
		fmt.Fprintf(out, "warehouse: %d relation(s), %d tuple(s)\n", len(w.Names()), w.Size())
		return persist(w)

	case "repl":
		w, err := buildW()
		if err != nil {
			return err
		}
		if err := runREPL(w, spec.DB, os.Stdin, out); err != nil {
			return err
		}
		return persist(w)

	case "specify":
		comp, err := dwc.ComputeComplement(spec.DB, spec.Views, opts)
		if err != nil {
			return err
		}
		sp, err := dwc.Specify(comp)
		if err != nil {
			return err
		}
		fmt.Fprint(out, sp)
		return nil

	case "verify":
		// Empirically verify the complement on random consistent states:
		// reconstruction (Definition 2.2) and injectivity (Prop 2.1).
		comp, err := dwc.ComputeComplement(spec.DB, spec.Views, opts)
		if err != nil {
			return err
		}
		gen := dwc.NewWorkloadGen(spec.DB, 42)
		states := dwc.WorkloadStates(gen.States(40, 10)...)
		states = append(states, spec.State)
		if err := comp.CheckReconstruction(states); err != nil {
			return fmt.Errorf("reconstruction check failed: %w", err)
		}
		if err := comp.CheckInjectivity(states); err != nil {
			return fmt.Errorf("injectivity check failed: %w", err)
		}
		fmt.Fprintf(out, "ok: W⁻¹∘W = id and the warehouse mapping is injective on %d states\n", len(states))
		return nil

	case "reconstruct":
		w, err := buildW()
		if err != nil {
			return err
		}
		bases, err := w.ReconstructBases()
		if err != nil {
			return err
		}
		for _, name := range spec.DB.Names() {
			fmt.Fprintf(out, "%s:\n%s\n", name, bases[name])
		}
		return nil

	case "export":
		// Write every reconstructed base relation as CSV into a directory
		// — round-trippable through the spec's load statements.
		if len(rest) != 1 {
			return fmt.Errorf("export takes a target directory")
		}
		dir := rest[0]
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		w, err := buildW()
		if err != nil {
			return err
		}
		bases, err := w.ReconstructBases()
		if err != nil {
			return err
		}
		for _, name := range spec.DB.Names() {
			f, err := os.Create(filepath.Join(dir, name+".csv"))
			if err != nil {
				return err
			}
			if err := bases[name].WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s (%d tuples)\n", filepath.Join(dir, name+".csv"), bases[name].Len())
		}
		return nil

	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// runVet parses path in diagnostic mode, prints every finding, and
// returns an error (→ exit 1) iff any finding has error severity.
// Warnings and infos are reported but do not fail the command.
func runVet(path string, opts dwc.Options, out io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ds, err := dwc.ParseSpecDiag(string(raw), filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	diags := dwc.VetSpec(ds, opts)
	for _, d := range diags {
		fmt.Fprintf(out, "%s: %s\n", path, d)
	}
	if dwc.VetHasErrors(diags) {
		n := 0
		for _, d := range diags {
			if d.Severity == dwc.VetError {
				n++
			}
		}
		return fmt.Errorf("%s: %d error(s)", path, n)
	}
	fmt.Fprintf(out, "vet: %s ok (%d diagnostic(s))\n", path, len(diags))
	return nil
}

// printRefresh writes a refresh's summary: the totals after the lead word,
// then per maintained relation its delta and what propagating it read.
func printRefresh(out io.Writer, lead string, stats dwc.RefreshStats) {
	fmt.Fprintf(out, "%s %d source change(s), %d warehouse tuple change(s)\n", lead, stats.UpdateSize, stats.Total())
	for _, sp := range stats.Spans {
		fmt.Fprintf(out, "  %-20s +%d -%d applied=%d scanned=%d probed=%d\n",
			sp.Target, sp.DeltaIns, sp.DeltaDel, sp.Applied, sp.Scanned, sp.Probed)
	}
}
