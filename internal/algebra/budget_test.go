package algebra

import (
	"context"
	"errors"
	"testing"

	"dwcomplement/internal/relation"
	"dwcomplement/internal/testmain"
)

func TestMain(m *testing.M) { testmain.Run(m) }

// TestBudgetUnlimitedByDefault: a context without a budget evaluates
// exactly like before.
func TestBudgetUnlimitedByDefault(t *testing.T) {
	st := figure1State()
	ec := NewEvalContext(context.Background())
	out, err := EvalCtx(ec, soldExpr(), st)
	if err != nil {
		t.Fatalf("EvalCtx: %v", err)
	}
	if out.Len() != 3 {
		t.Fatalf("got %d tuples, want 3", out.Len())
	}
	if _, ok := BudgetFromContext(context.Background()); ok {
		t.Fatal("background context unexpectedly carries a budget")
	}
}

// TestWithBudgetZeroIsNoop: attaching the zero budget changes nothing.
func TestWithBudgetZeroIsNoop(t *testing.T) {
	ctx := context.Background()
	if got := WithBudget(ctx, Budget{}); got != ctx {
		t.Fatal("zero budget allocated a new context")
	}
}

// TestBudgetEmittedExceeded: an evaluation that emits more rows than
// budgeted fails with ErrBudgetExceeded.
func TestBudgetEmittedExceeded(t *testing.T) {
	st := figure1State()
	ctx := WithBudget(context.Background(), Budget{Emitted: 2})
	ec := NewEvalContext(ctx)
	_, err := EvalCtx(ec, soldExpr(), st)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestBudgetScannedExceeded: same for the scan budget.
func TestBudgetScannedExceeded(t *testing.T) {
	st := figure1State()
	ctx := WithBudget(context.Background(), Budget{Scanned: 1})
	ec := NewEvalContext(ctx)
	q := NewSelect(soldExpr(), AttrCmpConst("age", OpLt, relation.Int(30)))
	_, err := EvalCtx(ec, q, st)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestBudgetGenerousPasses: a budget above the evaluation's real cost
// does not interfere with the answer.
func TestBudgetGenerousPasses(t *testing.T) {
	st := figure1State()
	ctx := WithBudget(context.Background(), Budget{Scanned: 1 << 20, Emitted: 1 << 20})
	ec := NewEvalContext(ctx)
	out, err := EvalCtx(ec, soldExpr(), st)
	if err != nil {
		t.Fatalf("EvalCtx: %v", err)
	}
	if out.Len() != 3 {
		t.Fatalf("got %d tuples, want 3", out.Len())
	}
}

// TestBudgetRootOperator: the budget trips even when the violating
// operator is the plan root (no later boundary check would run).
func TestBudgetRootOperator(t *testing.T) {
	st := figure1State()
	// A bare base scan emits 3; budget 2 must still fail at the root.
	ctx := WithBudget(context.Background(), Budget{Emitted: 2})
	ec := NewEvalContext(ctx)
	_, err := EvalCtx(ec, NewBase("Emp"), st)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestBudgetRestrictedPath: EvalRestricted enforces the same budget.
func TestBudgetRestrictedPath(t *testing.T) {
	st := figure1State()
	probe := relation.New("clerk")
	probe.InsertValues(relation.String_("Mary"))
	ctx := WithBudget(context.Background(), Budget{Emitted: 1})
	ec := NewEvalContext(ctx)
	_, err := EvalRestricted(ec, soldExpr(), st, probe)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestBudgetErrIsSticky: once tripped, Err keeps reporting the
// violation — later operators in the same evaluation all stop.
func TestBudgetErrIsSticky(t *testing.T) {
	ctx := WithBudget(context.Background(), Budget{Emitted: 1})
	ec := NewEvalContext(ctx)
	st := figure1State()
	if _, err := EvalCtx(ec, NewBase("Emp"), st); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("first eval err = %v, want ErrBudgetExceeded", err)
	}
	if err := ec.Err(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Err() = %v, want sticky ErrBudgetExceeded", err)
	}
	// A fresh context over the same base context starts clean.
	ec2 := NewEvalContext(ctx)
	if err := ec2.Err(); err != nil {
		t.Fatalf("fresh context Err() = %v, want nil", err)
	}
}
