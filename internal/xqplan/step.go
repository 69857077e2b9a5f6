package xqplan

import (
	"sync"
	"sync/atomic"

	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
)

// StepPlan is the compiled form of one path step: the axis with the
// descendant-or-self::node()/child::T fusion already applied, the node test,
// the predicate list, and — for StandOff axes — the section 3.3 candidate
// policy plus the join-strategy choice. Everything statically knowable is
// decided here, once, at compile time; the evaluator consumes StepPlans
// without re-deriving any of it per evaluation.
//
// The two memo tables hold the per-document residue that cannot be decided
// before a plan binds to documents: the node test resolved against a
// document's dictionary, and the statistics-based Basic vs Loop-Lifted
// choice per index generation (the document/options token, so a rebuilt
// index for the same document stays warm). Both are resolved at first use
// and cached, with the table reset once it outgrows stepMemoLimit — a plan
// held across many document reload cycles must not pin every dead document
// tree its test-memo keys reference. A StepPlan is shared by every
// concurrent execution of its plan; use pointers, never copy one.
type StepPlan struct {
	Axis       xpath.Axis
	Test       xpath.Test
	Predicates []xqast.Expr
	// Fused marks a descendant step produced by merging the
	// descendant-or-self::node()/child::T pair (the // abbreviation) at
	// compile time.
	Fused bool
	// StandOff reports whether Axis is one of the four StandOff steps; SO
	// is only meaningful when it is.
	StandOff bool
	SO       SOStep

	tests       sync.Map // *tree.Doc -> xpath.Compiled
	nTests      atomic.Int32
	strategies  sync.Map // strategyKey -> *CostEstimate
	nStrategies atomic.Int32
	lastCost    atomic.Pointer[CostEstimate]
}

// stepMemoLimit bounds each StepPlan memo table. The memos are pure caches
// keyed by document / index pointers; resetting one merely costs a
// recompute, while letting it grow would keep every document a long-lived
// plan ever bound to reachable.
const stepMemoLimit = 128

// memoStore inserts into a memo table, resetting the table when it outgrows
// stepMemoLimit. A concurrent reset may drop a freshly stored entry — that
// only means one extra recompute later.
func memoStore(m *sync.Map, n *atomic.Int32, k, v any) {
	if n.Add(1) > stepMemoLimit {
		n.Store(0)
		m.Range(func(key, _ any) bool {
			m.Delete(key)
			return true
		})
	}
	m.Store(k, v)
}

// strategyKey memoizes the cost-model choice per (index generation, pushdown
// setting, context-cardinality band) triple: the candidate estimate differs
// when the name test is pushed down versus post-filtered, and the
// Basic-vs-Loop-Lifted crossover moves with the observed context
// cardinality, so executions in different cardinality bands re-decide.
// Keying on the generation token rather than the *RegionIndex identity means
// a rebuilt index for the same document under the same options hits the warm
// memo — the statistics are identical by construction — and the memo pins
// neither the document nor the index.
type strategyKey struct {
	gen      core.IndexGen
	pushdown bool
	band     uint8
}

// Streamability classifies how a step may execute as the final operator of a
// pipelined path: not at all, per context node (forward tree axes), or per
// context chunk through the StandOff join plus ordered dedup merge. The
// classification is static — the run time still has to check the conditions
// only it can see (disjoint context subtrees for StreamTree, a
// single-document node context for StreamChunked) and falls back to the bulk
// step when they fail.
type Streamability int

const (
	// StreamNone: the step materialises (predicates re-rank positions per
	// context group; reject steps are anti-joins over the whole context).
	StreamNone Streamability = iota
	// StreamTree: a forward tree axis whose per-node results stay inside
	// the context node's subtree — streams one context node at a time when
	// the context subtrees are disjoint.
	StreamTree
	// StreamChunked: a StandOff select step — the loop-lifted join runs per
	// chunk of context nodes and the chunk outputs merge through a
	// document-order heap with cross-chunk dedup, emission gated by the
	// candidate-interval watermark.
	StreamChunked
	// StreamChunkedReject: a StandOff reject step — an anti-join over the
	// whole context, so per-chunk results cannot merge directly; instead the
	// select-side join of each chunk marks matched candidates in a bitset
	// and one complement at the end emits the unmatched candidates in
	// document order. Blocking (first emission after the last chunk) but
	// memory-bounded: one bit per candidate plus one chunk's join state.
	StreamChunkedReject
)

func (s Streamability) String() string {
	switch s {
	case StreamTree:
		return "per-node"
	case StreamChunked:
		return "chunked"
	case StreamChunkedReject:
		return "chunked-reject"
	default:
		return "none"
	}
}

// Streamability returns the step's static streaming classification.
func (sp *StepPlan) Streamability() Streamability {
	if len(sp.Predicates) > 0 {
		return StreamNone
	}
	if sp.StandOff {
		if sp.Axis == xpath.AxisSelectNarrow || sp.Axis == xpath.AxisSelectWide {
			return StreamChunked
		}
		return StreamChunkedReject
	}
	switch sp.Axis {
	case xpath.AxisChild, xpath.AxisDescendant, xpath.AxisDescendantOrSelf,
		xpath.AxisSelf, xpath.AxisAttribute:
		return StreamTree
	default:
		return StreamNone
	}
}

// Program is the compiled step sequence of one path expression, with the //
// fusion applied (a Program can be shorter than the source step list).
type Program []*StepPlan

// NumStandOff returns how many StandOff steps the program contains.
func (pr Program) NumStandOff() int {
	n := 0
	for _, sp := range pr {
		if sp.StandOff {
			n++
		}
	}
	return n
}

// CompileStep compiles a single step. Compile uses it for every step of the
// module; the evaluator uses it for steps synthesised at run time (the
// so:select-narrow(...) function form).
func CompileStep(step *xqast.Step) *StepPlan {
	sp := &StepPlan{Axis: step.Axis, Test: step.Test, Predicates: step.Predicates}
	if step.Axis.StandOff() {
		sp.StandOff = true
		sp.SO = Decide(step)
	}
	return sp
}

// compileProgram compiles a path's step list, fusing each
// descendant-or-self::node()/child::T pair (both predicate-free) into a
// single descendant::T step so the subtree is never materialised node by
// node. This decision was previously re-made by the evaluator on every
// evaluation of the path.
func compileProgram(v *xqast.Path) Program {
	prog := make(Program, 0, len(v.Steps))
	for si := 0; si < len(v.Steps); si++ {
		step := v.Steps[si]
		if step.Axis == xpath.AxisDescendantOrSelf && step.Test.Kind == xpath.TestAnyNode &&
			len(step.Predicates) == 0 && si+1 < len(v.Steps) {
			next := v.Steps[si+1]
			if next.Axis == xpath.AxisChild && len(next.Predicates) == 0 {
				sp := CompileStep(&xqast.Step{Axis: xpath.AxisDescendant, Test: next.Test})
				sp.Fused = true
				prog = append(prog, sp)
				si++
				continue
			}
		}
		prog = append(prog, CompileStep(step))
	}
	return prog
}

// CompiledTest returns the step's node test resolved against d's dictionary,
// memoized per document so repeated executions of a cached plan skip the
// string lookup entirely.
func (sp *StepPlan) CompiledTest(d *tree.Doc) xpath.Compiled {
	if c, ok := sp.tests.Load(d); ok {
		return c.(xpath.Compiled)
	}
	c := xpath.Compile(d, sp.Test)
	memoStore(&sp.tests, &sp.nTests, d, c)
	return c
}

// StrategyFor resolves the Basic vs Loop-Lifted choice for this step against
// one region index and the context cardinality observed by the calling
// execution (iterations × context nodes — cost model v2's second input),
// memoized per (index generation, pushdown, cardinality band): plans can
// bind to documents loaded after Prepare, so the statistics-based choice
// happens at first execution rather than at compile time. The most recent
// estimate is retained for EXPLAIN (LastCost). Tree-axis steps never call
// this.
func (sp *StepPlan) StrategyFor(ix *core.RegionIndex, pushdown bool, ctxRows int) core.Strategy {
	k := strategyKey{gen: ix.Gen(), pushdown: pushdown, band: ctxBand(ctxRows)}
	if v, ok := sp.strategies.Load(k); ok {
		// Refresh the EXPLAIN record on warm hits too, so est{} always
		// describes the decision of the most recent execution, not of
		// whichever execution happened to miss the memo last. Compaction
		// folds an index's delta without bumping its generation (the memo
		// stays warm on purpose), so the delta counts are re-read from the
		// live index rather than served from the memoized record.
		ce := v.(*CostEstimate)
		if ins, del := ix.DeltaStats(); ins != ce.DeltaIns || del != ce.DeltaDead {
			cp := *ce
			cp.DeltaIns, cp.DeltaDead = ins, del
			sp.lastCost.Store(&cp)
		} else {
			sp.lastCost.Store(ce)
		}
		return ce.Strategy
	}
	ce := EstimateCost(sp.SO.Policy(pushdown), sp.SO.Name, ix, ctxRows)
	sp.lastCost.Store(&ce)
	memoStore(&sp.strategies, &sp.nStrategies, k, &ce)
	return ce.Strategy
}

// LastCost returns the most recent cost-model estimate resolved for this
// step, or nil before the first auto-mode execution. A step that has
// executed against several indexes (or in several cardinality bands) reports
// the latest decision; ResolvedStrategies lists every distinct outcome.
func (sp *StepPlan) LastCost() *CostEstimate { return sp.lastCost.Load() }

// ResolvedStrategies returns the distinct strategies the cost model has
// chosen for this step so far (empty before the first auto-mode execution,
// or when every execution forced a strategy). Sorted ascending for
// deterministic EXPLAIN output.
func (sp *StepPlan) ResolvedStrategies() []core.Strategy {
	seen := map[core.Strategy]bool{}
	sp.strategies.Range(func(_, v any) bool {
		seen[v.(*CostEstimate).Strategy] = true
		return true
	})
	var out []core.Strategy
	for _, s := range []core.Strategy{core.StrategyNaive, core.StrategyBasic, core.StrategyLoopLifted} {
		if seen[s] {
			out = append(out, s)
		}
	}
	return out
}
