// Command dwlint runs the repository's Go-invariant analyzers (the
// dwvet subsystem's Layer 1, see DESIGN.md §10 and §15) over the given
// package patterns and exits non-zero if any diagnostic is reported.
//
// Usage:
//
//	dwlint [-only names] [-list] [-json file] [-github] [packages ...]
//
// With no patterns, ./... is analyzed. -only restricts the run to a
// comma-separated subset of analyzers; -list prints the catalog.
//
// -json writes the diagnostics as a JSON array to a file ("-" for
// stdout — the machine-readable form CI consumes); -github renders
// each finding as a GitHub Actions workflow annotation (::error ...)
// so findings surface inline on pull requests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dwcomplement/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dwlint", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	jsonOut := fs.String("json", "", `write diagnostics as a JSON array to this file ("-" for stdout)`)
	github := fs.Bool("github", false, "emit GitHub Actions ::error annotations for each finding")
	fs.Parse(args)

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *only != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	patterns := fs.Args()
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	diags := lint.Run(pkgs, analyzers)
	if diags == nil {
		diags = []lint.Diagnostic{} // a clean run encodes as [], not null
	}

	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if *jsonOut != "-" {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *github {
		for _, d := range diags {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=dwlint(%s)::%s\n",
				relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, escapeAnnotation(d.Message))
		}
	}

	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dwlint: %d issue(s) found\n", len(diags))
		return 1
	}
	return 0
}

// relPath renders a position filename relative to the working
// directory when possible (GitHub annotations need repo-relative paths).
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}

// escapeAnnotation encodes the characters the workflow-command parser
// treats specially in the message part.
func escapeAnnotation(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}
