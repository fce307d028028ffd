package algebra

// Property test for the vectorized selection path: CompileBatchPred must
// preserve EvalCond's semantics bit for bit on randomized condition trees
// over randomized relations — including NULL constants, attribute-attribute
// comparisons, references to missing attributes, and columns whose pages
// are typed (with NULLs) or mixed-kind, the latter forcing the generic
// ColAny fallback, so one scan meets several layouts of one column.

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"dwcomplement/internal/relation"
)

// Edge values the typed kernels must treat as EvalCond does: NaN equals NaN
// and sorts below -Inf, -0 equals +0, and the extreme ints, which an int
// compared against a float constant meets only after widening.
var (
	edgeInts   = []int64{math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1}
	edgeFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1 << 63, -(1 << 63), 1 << 53}
)

// randInt and randFloat draw from the small domain the relations are
// populated with, so equality hits, or, one time in four, an edge value.
func randInt(rng *rand.Rand) int64 {
	if rng.Intn(4) == 0 {
		return edgeInts[rng.Intn(len(edgeInts))]
	}
	return int64(rng.Intn(5))
}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return edgeFloats[rng.Intn(len(edgeFloats))]
	}
	return float64(rng.Intn(5)) - 1.5
}

// randCondValue draws comparison constants from the same domain the
// relations are populated with, plus NULL and a stray kind, so equality
// hits, misses, incomparable pairs, and NULL-matching all occur; int
// constants meet float pages and float constants int pages.
func randCondValue(rng *rand.Rand) relation.Value {
	switch rng.Intn(8) {
	case 0:
		return relation.Null()
	case 1:
		return relation.Bool(rng.Intn(2) == 0)
	case 2, 3:
		return relation.Int(randInt(rng))
	case 4, 5:
		return relation.Float(randFloat(rng))
	default:
		return relation.String_("k" + strconv.Itoa(rng.Intn(6)))
	}
}

// randRowValue draws a value for a column whose page holds one kind (plus
// NULLs), or, for relation.KindNull, any kind.
func randRowValue(rng *rand.Rand, kind relation.Kind) relation.Value {
	if kind != relation.KindNull && rng.Intn(6) == 0 {
		return relation.Null()
	}
	switch kind {
	case relation.KindBool:
		return relation.Bool(rng.Intn(2) == 0)
	case relation.KindInt:
		return relation.Int(randInt(rng))
	case relation.KindFloat:
		return relation.Float(randFloat(rng))
	case relation.KindString:
		return relation.String_("k" + strconv.Itoa(rng.Intn(6)))
	}
	switch rng.Intn(9) {
	case 0:
		return relation.Null()
	case 1:
		return relation.Bool(rng.Intn(2) == 0)
	case 2, 3:
		return relation.Int(randInt(rng))
	case 4, 5:
		return relation.Float(randFloat(rng))
	case 6:
		return relation.Float(0)
	default:
		return relation.String_("k" + strconv.Itoa(rng.Intn(6)))
	}
}

// randOperand references a live attribute, a missing attribute (rarely),
// or a constant.
func randOperand(rng *rand.Rand, attrs []string) Operand {
	switch rng.Intn(6) {
	case 0, 1, 2:
		return AttrOperand(attrs[rng.Intn(len(attrs))])
	case 3:
		return ConstOperand(randCondValue(rng))
	case 4:
		return ConstOperand(randCondValue(rng))
	default:
		return AttrOperand("missing")
	}
}

var cmpOps = []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

// randCond builds a random condition tree of bounded depth from this
// package's constructors — exactly the shapes CompileBatchPred promises to
// compile.
func randCond(rng *rand.Rand, attrs []string, depth int) Cond {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(8) == 0 {
			return True{}
		}
		return &Cmp{
			Left:  randOperand(rng, attrs),
			Op:    cmpOps[rng.Intn(len(cmpOps))],
			Right: randOperand(rng, attrs),
		}
	}
	switch rng.Intn(3) {
	case 0:
		return &And{L: randCond(rng, attrs, depth-1), R: randCond(rng, attrs, depth-1)}
	case 1:
		return &Or{L: randCond(rng, attrs, depth-1), R: randCond(rng, attrs, depth-1)}
	default:
		return &Not{C: randCond(rng, attrs, depth-1)}
	}
}

// TestVectorizedSelectMatchesEvalCond compares SelectBatch over compiled
// batch predicates with the scalar Select+EvalCond loop on relations large
// enough to span multiple batches.
func TestVectorizedSelectMatchesEvalCond(t *testing.T) {
	attrs := []string{"a", "b", "c", "id"}
	layouts := map[relation.ColKind]int{}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))

		// Sizes straddle the batch size so partial final batches and
		// multi-batch inputs are both exercised.
		// id keeps the rows distinct; a, b and c draw a kind per page.
		n := []int{1, 50, 130, relation.BatchSize, relation.BatchSize + 37, 5 * relation.BatchSize / 2}[rng.Intn(6)]
		in := relation.New(attrs...)
		var kinds [3]relation.Kind
		for i := 0; i < n; i++ {
			if i%relation.BatchSize == 0 {
				for j := range kinds {
					kinds[j] = relation.Kind(rng.Intn(5))
				}
			}
			tu := relation.Tuple{3: relation.Int(int64(i))}
			for j, k := range kinds {
				tu[j] = randRowValue(rng, k)
			}
			in.Insert(tu)
		}
		for b := range in.Batches() {
			for c := range kinds {
				layouts[b.ColKind(c)]++
			}
		}

		for trial := 0; trial < 8; trial++ {
			c := randCond(rng, attrs, 3)

			want := relation.Select(in, func(row relation.Row) bool { return EvalCond(c, row) })

			pred := CompileBatchPred(c, in.Attrs())
			if pred == nil {
				t.Fatalf("seed %d: CompileBatchPred returned nil for %v", seed, c)
			}
			got := relation.SelectBatch(in, pred)

			if got.Len() != want.Len() {
				t.Fatalf("seed %d cond %v: vectorized selected %d rows, scalar %d",
					seed, c, got.Len(), want.Len())
			}
			for tu := range want.All() {
				if !got.Contains(tu) {
					t.Fatalf("seed %d cond %v: scalar selected %v, vectorized did not",
						seed, c, tu)
				}
			}
		}
	}
	for k := relation.ColAny; k <= relation.ColString; k++ {
		if layouts[k] == 0 {
			t.Errorf("no page was laid out as %v: its kernels went untested", k)
		}
	}
}

// TestCompareKernelsOnEdgeValues: every operator against every edge
// constant, int and float, over an int page and a float page holding the
// edge values and a NULL, selects what EvalCond selects.
func TestCompareKernelsOnEdgeValues(t *testing.T) {
	ints, floats := relation.New("v"), relation.New("v")
	var consts []relation.Value
	for _, i := range append(edgeInts, -1, 0, 2) {
		ints.Insert(relation.Tuple{relation.Int(i)})
		consts = append(consts, relation.Int(i))
	}
	for _, f := range append(edgeFloats, -1.5, 2.5) {
		floats.Insert(relation.Tuple{relation.Float(f)})
		consts = append(consts, relation.Float(f))
	}
	for _, r := range []*relation.Relation{ints, floats} {
		r.Insert(relation.Tuple{relation.Null()})
		for _, op := range cmpOps {
			for _, cv := range consts {
				c := AttrCmpConst("v", op, cv)
				got, want := SelectCond(r, c, nil), relation.Select(r, func(row relation.Row) bool { return EvalCond(c, row) })
				if !got.Equal(want) {
					t.Fatalf("%v over %v: kernel selects %v, EvalCond %v", c, r.SortedTuples(), got.SortedTuples(), want.SortedTuples())
				}
			}
		}
	}
}

// TestSelectIsOneImplementation: σ has no size-based dispatch any more —
// an input of one row, of a few rows and of several pages takes the same
// compiled predicate, agrees with EvalCond row by row, and counts the
// pages it walked; a stored relation selected from is left as it was.
func TestSelectIsOneImplementation(t *testing.T) {
	c := AttrCmpConst("a", OpGe, relation.Int(2))
	for _, n := range []int{1, 3, 127, 128, relation.BatchSize + 1} {
		r := relation.New("a")
		for i := 0; i < n; i++ {
			r.Insert(relation.Tuple{relation.Int(int64(i))})
		}
		var st relation.OpStats
		copied := r.CopiedBytes()
		out := SelectCond(r, c, &st)
		want := relation.Select(r, func(row relation.Row) bool { return EvalCond(c, row) })
		if !out.Equal(want) || out.Len() != max(0, n-2) {
			t.Fatalf("n=%d: σ selects %d rows, EvalCond %d", n, out.Len(), want.Len())
		}
		if st.Batches != int64((n+relation.BatchSize-1)/relation.BatchSize) || st.Scanned != int64(n) || st.Emitted != int64(out.Len()) {
			t.Fatalf("n=%d: counters %+v", n, st)
		}
		if r.CopiedBytes() != copied {
			t.Fatalf("n=%d: a selection wrote its input", n)
		}
	}
}
