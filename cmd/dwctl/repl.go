package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	dwc "dwcomplement"
	"dwcomplement/internal/trace"
)

// runREPL drives an interactive warehouse session: queries are translated
// and answered, insert/delete statements are maintained incrementally, and
// inspection commands expose the warehouse state — all against the live
// in-memory warehouse, never the sources.
//
// Every query and refresh is traced (the session is interactive, so the
// sampling rate is 1): `traces` lists the session's recent traces and
// `trace [<id>]` renders one as an indented span tree — the same view
// dwserve exposes over GET /traces, without a server in the loop.
func runREPL(w *dwc.Warehouse, db *dwc.Database, in io.Reader, out io.Writer) error {
	m := dwc.NewMaintainer(w.Complement())
	tracer := trace.New(trace.Config{Rate: 1})
	scanner := bufio.NewScanner(in)
	fmt.Fprintln(out, "dwctl repl — type 'help' for commands, 'quit' to exit")
	prompt := func() { fmt.Fprint(out, "dw> ") }
	prompt()
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):

		case line == "quit" || line == "exit":
			return nil

		case line == "help":
			fmt.Fprint(out, `commands:
  query <expr>        translate a source query and answer it
  explain <expr>      show the translated operator tree (no execution)
  explain analyze <expr>  execute and show per-operator counters/timings
  insert R(...)       apply an insertion (incremental maintenance)
  delete R(...)       apply a deletion
  update R set a = v where cond    apply a modification (delete+insert)
  show <relation>     print a warehouse relation
  relations           list warehouse relations and sizes
  bases               reconstruct and print all base relations
  complement          print the complement definitions
  traces              list this session's traces (most recent first)
  trace [<id>]        render one trace's span tree (default: most recent)
  quit                leave
`)

		case strings.HasPrefix(line, "query "):
			src := strings.TrimPrefix(line, "query ")
			q, err := dwc.ParseExpr(src)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			qHat, err := w.TranslateQuery(q)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintln(out, "Q̂ =", qHat)
			ctx, sp := tracer.Start(context.Background(), "query")
			sp.SetAttr("query", q.String())
			rows, err := dwc.Answer(ctx, w, q)
			if err != nil {
				sp.End()
				fmt.Fprintln(out, "error:", err)
				break
			}
			sp.SetAttrInt("rows", int64(rows.Len()))
			sp.End()
			fmt.Fprint(out, rows.Relation())

		case strings.HasPrefix(line, "explain "):
			src := strings.TrimPrefix(line, "explain ")
			analyze := false
			if rest, ok := strings.CutPrefix(src, "analyze "); ok {
				analyze = true
				src = rest
			}
			q, err := dwc.ParseExpr(src)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			if !analyze {
				qHat, tree, err := dwc.Explain(w, q)
				if err != nil {
					fmt.Fprintln(out, "error:", err)
					break
				}
				fmt.Fprintln(out, "Q̂ =", qHat)
				fmt.Fprint(out, tree)
				break
			}
			_, stats, plan, err := dwc.ExplainAnalyze(nil, w, q)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprint(out, plan)
			fmt.Fprintf(out, "totals: rows=%d scanned=%d probed=%d hits=%d builds=%d wall=%s\n",
				stats.Emitted, stats.Scanned, stats.Probed, stats.IndexHits, stats.IndexBuilds, stats.Wall)

		case strings.HasPrefix(line, "insert ") || strings.HasPrefix(line, "delete ") ||
			strings.HasPrefix(line, "update "):
			u, err := dwc.ParseUpdateOpsAt(db, dwc.NewVirtualState(w.Complement(), w), line)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			ctx, sp := tracer.Start(context.Background(), "refresh")
			sp.SetAttrInt("changes", int64(u.Size()))
			stats, err := dwc.Refresh(ctx, m, w, u)
			if err != nil {
				sp.SetAttr("outcome", "error")
				sp.End()
				fmt.Fprintln(out, "error:", err)
				break
			}
			sp.End()
			printRefresh(out, "ok:", stats)

		case strings.HasPrefix(line, "show "):
			name := strings.TrimSpace(strings.TrimPrefix(line, "show "))
			r, ok := w.Relation(name)
			if !ok {
				fmt.Fprintf(out, "error: no warehouse relation %q\n", name)
				break
			}
			fmt.Fprint(out, r)

		case line == "relations":
			for _, name := range w.Names() {
				r, _ := w.Relation(name)
				fmt.Fprintf(out, "%-20s %d tuple(s)\n", name, r.Len())
			}

		case line == "bases":
			bases, err := w.ReconstructBases()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			for _, name := range db.Names() {
				fmt.Fprintf(out, "%s:\n%s", name, bases[name])
			}

		case line == "complement":
			fmt.Fprintln(out, w.Complement())

		case line == "traces":
			sums := tracer.Store().Traces(20)
			if len(sums) == 0 {
				fmt.Fprintln(out, "(no traces yet)")
				break
			}
			for _, sum := range sums {
				fmt.Fprintf(out, "%s  %-10s %2d span(s)  %s\n",
					sum.TraceID, sum.Root, sum.Spans, sum.End.Sub(sum.Start).Round(time.Microsecond))
			}

		case line == "trace" || strings.HasPrefix(line, "trace "):
			arg := strings.TrimSpace(strings.TrimPrefix(line, "trace"))
			var id trace.TraceID
			if arg == "" {
				sums := tracer.Store().Traces(1)
				if len(sums) == 0 {
					fmt.Fprintln(out, "(no traces yet)")
					break
				}
				id, _ = trace.ParseTraceID(sums[0].TraceID)
			} else {
				var ok bool
				if id, ok = trace.ParseTraceID(arg); !ok {
					fmt.Fprintf(out, "error: bad trace id %q\n", arg)
					break
				}
			}
			spans, ok := tracer.Store().Trace(id)
			if !ok {
				fmt.Fprintf(out, "error: no trace %s\n", id)
				break
			}
			fmt.Fprintf(out, "trace %s\n%s", id, trace.Render(spans))

		default:
			fmt.Fprintf(out, "unknown command %q (try 'help')\n", line)
		}
		prompt()
	}
	return scanner.Err()
}
