package algebra

// This file holds the physical plan tree recorded by instrumented
// evaluations: every operator node of an EvalCtx / EvalRestricted run
// becomes a PlanNode carrying its counters and wall times, nested exactly
// like the expression tree that produced it. The tree is what
// EXPLAIN ANALYZE renders; the flat EvalStats totals are the sums of the
// same per-node counters, so the two views are always consistent.

import (
	"fmt"
	"strings"
	"time"
)

// PlanNode is one operator node of an executed plan. Inclusive wall time
// covers the node and all of its children (an operator's cost includes
// producing its inputs); Exclusive is Inclusive minus the children's
// Inclusive times — the node's own cost. Counters are the node's own
// (exclusive) physical work. Nodes are immutable once their evaluation
// finishes; readers must not mutate them.
type PlanNode struct {
	Op          string        `json:"op"`
	Restricted  bool          `json:"restricted,omitempty"`
	ProbeRows   int64         `json:"probeRows,omitempty"` // rows of the probe a restricted node was evaluated under
	Scanned     int64         `json:"scanned"`
	Probed      int64         `json:"probed"`
	Emitted     int64         `json:"emitted"`
	IndexHits   int64         `json:"indexHits"`
	IndexBuilds int64         `json:"indexBuilds"`
	Batches     int64         `json:"batches,omitempty"`
	Inclusive   time.Duration `json:"inclusiveNs"`
	Exclusive   time.Duration `json:"exclusiveNs"`
	Children    []*PlanNode   `json:"children,omitempty"`
}

// addChild appends a child plan node; both receiver and child may be nil
// (instrumentation off, or the node cap was reached).
func (n *PlanNode) addChild(c *PlanNode) {
	if n == nil || c == nil {
		return
	}
	n.Children = append(n.Children, c)
}

// NodeCount returns the number of nodes in the tree rooted at n.
func (n *PlanNode) NodeCount() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.NodeCount()
	}
	return total
}

// line renders one node's label and counters.
func (n *PlanNode) line(withTiming bool) string {
	op := n.Op
	if n.Restricted {
		op += fmt.Sprintf(" ⋉probe[%d]", n.ProbeRows)
	}
	s := fmt.Sprintf("%s  rows=%d scanned=%d probed=%d hits=%d builds=%d",
		op, n.Emitted, n.Scanned, n.Probed, n.IndexHits, n.IndexBuilds)
	if withTiming {
		s += fmt.Sprintf(" incl=%s excl=%s", n.Inclusive, n.Exclusive)
	}
	return s
}

// render writes the subtree with tree glyphs; prefix is the indentation of
// this node's line, childPrefix of its children's lines.
func (n *PlanNode) render(b *strings.Builder, prefix, childPrefix string, withTiming bool) {
	b.WriteString(prefix)
	b.WriteString(n.line(withTiming))
	b.WriteByte('\n')
	for i, c := range n.Children {
		if i == len(n.Children)-1 {
			c.render(b, childPrefix+"└── ", childPrefix+"    ", withTiming)
		} else {
			c.render(b, childPrefix+"├── ", childPrefix+"│   ", withTiming)
		}
	}
}

// RenderPlan renders executed plan trees as an indented text tree, one
// root per top-level evaluation. With withTiming false the output is
// deterministic for a fixed state and expression (golden-testable); with
// true each node also shows inclusive and exclusive wall time.
func RenderPlan(roots []*PlanNode, withTiming bool) string {
	var b strings.Builder
	for _, r := range roots {
		if r == nil {
			continue
		}
		r.render(&b, "", "", withTiming)
	}
	return b.String()
}

// exprLabel is the static (pre-execution) label of an expression node.
func exprLabel(e Expr) string {
	switch n := e.(type) {
	case *Base:
		return n.Name
	case *Empty:
		return "∅{" + strings.Join(n.Attrs, ",") + "}"
	case *Select:
		return "σ{" + n.Cond.String() + "}"
	case *Project:
		return "π{" + strings.Join(n.Attrs, ",") + "}"
	case *Join:
		return fmt.Sprintf("⋈ (%d-way)", len(n.Inputs))
	case *Union:
		return "∪"
	case *Diff:
		return "∖"
	case *Rename:
		parts := make([]string, 0, len(n.Mapping))
		for _, k := range sortedMappingKeys(n.Mapping) {
			parts = append(parts, k+"→"+n.Mapping[k])
		}
		return "ρ{" + strings.Join(parts, ",") + "}"
	default:
		panic(fmt.Sprintf("algebra: unknown node %T", e))
	}
}

// children returns the ordered child expressions of e.
func children(e Expr) []Expr {
	switch n := e.(type) {
	case *Base, *Empty:
		return nil
	case *Select:
		return []Expr{n.Input}
	case *Project:
		return []Expr{n.Input}
	case *Join:
		return n.Inputs
	case *Union:
		return []Expr{n.L, n.R}
	case *Diff:
		return []Expr{n.L, n.R}
	case *Rename:
		return []Expr{n.Input}
	default:
		panic(fmt.Sprintf("algebra: unknown node %T", e))
	}
}

// ExprTree renders an expression as an indented operator tree — the
// static EXPLAIN view of a (translated) query, before execution.
func ExprTree(e Expr) string {
	var b strings.Builder
	renderExpr(&b, e, "", "")
	return b.String()
}

func renderExpr(b *strings.Builder, e Expr, prefix, childPrefix string) {
	b.WriteString(prefix)
	b.WriteString(exprLabel(e))
	b.WriteByte('\n')
	kids := children(e)
	for i, c := range kids {
		if i == len(kids)-1 {
			renderExpr(b, c, childPrefix+"└── ", childPrefix+"    ")
		} else {
			renderExpr(b, c, childPrefix+"├── ", childPrefix+"│   ")
		}
	}
}
