package xqplan

import (
	"fmt"
	"strings"
	"testing"

	"soxq/internal/core"
	"soxq/internal/xmlparse"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
)

// program returns the step program of the n-th path (discovery order) of a
// compiled query.
func program(t *testing.T, p *Plan, n int) Program {
	t.Helper()
	if n >= len(p.paths) {
		t.Fatalf("plan has %d paths, want index %d", len(p.paths), n)
	}
	return p.programs[p.paths[n]]
}

func TestFusionCompiled(t *testing.T) {
	// doc("d.xml")//music: descendant-or-self::node()/child::music fuses
	// into one descendant::music step at compile time.
	p := compile(t, `doc("d.xml")//music`)
	prog := program(t, p, 0)
	if len(prog) != 1 {
		t.Fatalf("program length = %d, want 1 (fused)", len(prog))
	}
	sp := prog[0]
	if sp.Axis != xpath.AxisDescendant || !sp.Fused || sp.Test.Name != "music" {
		t.Fatalf("fused step = %v::%v fused=%v", sp.Axis, sp.Test, sp.Fused)
	}
}

func TestNoFusionWithPredicates(t *testing.T) {
	// A predicate on the child step blocks the fusion: positional
	// predicates count per parent, and descendant flattening would break
	// that.
	p := compile(t, `doc("d.xml")//music[1]`)
	prog := program(t, p, 0)
	if len(prog) != 2 {
		t.Fatalf("program length = %d, want 2 (unfused)", len(prog))
	}
	if prog[0].Axis != xpath.AxisDescendantOrSelf || prog[1].Axis != xpath.AxisChild {
		t.Fatalf("axes = %v, %v", prog[0].Axis, prog[1].Axis)
	}
	if len(prog[1].Predicates) != 1 {
		t.Fatalf("child step predicates = %d, want 1", len(prog[1].Predicates))
	}
}

func TestStandOffStepCompiled(t *testing.T) {
	p := compile(t, `doc("d.xml")//music/select-narrow::shot`)
	prog := program(t, p, 0)
	if len(prog) != 2 {
		t.Fatalf("program length = %d, want 2", len(prog))
	}
	so := prog[1]
	if !so.StandOff || so.SO.Op != core.SelectNarrow || so.SO.Name != "shot" {
		t.Fatalf("standoff step = %+v", so.SO)
	}
}

// indexWith builds a region index over a generated document holding `dense`
// areas named dense and `rare` areas named rare.
func indexWith(t *testing.T, dense, rare int) *core.RegionIndex {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < dense; i++ {
		fmt.Fprintf(&sb, `<dense start="%d" end="%d"/>`, i*10, i*10+9)
	}
	for i := 0; i < rare; i++ {
		fmt.Fprintf(&sb, `<rare start="%d" end="%d"/>`, i*100, i*100+50)
	}
	sb.WriteString("</doc>")
	d, err := xmlparse.Parse("d.xml", []byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestStrategySelection pins cost model v2: the Basic vs Loop-Lifted choice
// moves with BOTH the candidate estimate from the index statistics and the
// context cardinality observed at execution. Basic wins exactly while
// (ctxRows-1)·candidates <= llSetupRows.
func TestStrategySelection(t *testing.T) {
	step := func(name string) *StepPlan {
		test := xpath.Test{Kind: xpath.TestAnyNode}
		if name != "" {
			test = xpath.NameTest(name)
		}
		return CompileStep(&xqast.Step{Axis: xpath.AxisSelectNarrow, Test: test})
	}
	for _, tc := range []struct {
		name        string
		dense, rare int
		test        string // element name test; "" = node()
		pushdown    bool
		ctxRows     int
		want        core.Strategy
	}{
		// One context row: no loop to lift, Basic regardless of candidates
		// (v1's fixed threshold would have forced Loop-Lifted here).
		{"single iteration, huge layer", 500, 0, "", true, 1, core.StrategyBasic},
		{"tiny layer, tiny loop", 10, 0, "", true, 3, core.StrategyBasic},
		{"tiny layer, big loop", 10, 0, "", true, 100, core.StrategyLoopLifted},
		{"huge layer, small loop", 500, 0, "", true, 5, core.StrategyLoopLifted},
		// Exact crossover: (ctx-1)·cand == llSetupRows chooses Basic, one
		// more candidate tips over.
		{"crossover boundary", llSetupRows, 0, "", true, 2, core.StrategyBasic},
		{"just past crossover", llSetupRows + 1, 0, "", true, 2, core.StrategyLoopLifted},
		{"rare tag in huge layer, pushdown", 500, 3, "rare", true, 10, core.StrategyBasic},
		{"dense tag in huge layer, pushdown", 500, 3, "dense", true, 10, core.StrategyLoopLifted},
		// Without pushdown the name test is post-filtered, so the
		// candidate set is the whole layer: the same rare-tag step flips
		// back to Loop-Lifted.
		{"rare tag, no pushdown", 500, 3, "rare", false, 10, core.StrategyLoopLifted},
		{"absent tag, pushdown", 500, 0, "ghost", true, 10, core.StrategyBasic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := indexWith(t, tc.dense, tc.rare)
			sp := step(tc.test)
			if got := sp.StrategyFor(ix, tc.pushdown, tc.ctxRows); got != tc.want {
				t.Fatalf("StrategyFor = %v, want %v (areas=%d ctx=%d)", got, tc.want, ix.Stats().Areas, tc.ctxRows)
			}
			// Repeatable: the second call prices the step again and agrees.
			if got := sp.StrategyFor(ix, tc.pushdown, tc.ctxRows); got != tc.want {
				t.Fatalf("memoized StrategyFor = %v, want %v", got, tc.want)
			}
			// The decision record is retained for EXPLAIN.
			ce := sp.LastCost()
			if ce == nil || ce.Strategy != tc.want || ce.CtxRows != tc.ctxRows {
				t.Fatalf("LastCost = %+v, want strategy %v ctx %d", ce, tc.want, tc.ctxRows)
			}
		})
	}
}

// TestStrategyFlipsWithContextCardinality is the headline cost-model-v2
// case: identical step, identical index — identical candidate estimate —
// yet the strategy flips from Basic to Loop-Lifted purely because the
// observed context cardinality grows. The v1 fixed-64 threshold (candidates
// here are far below 64) would have answered Basic for both.
func TestStrategyFlipsWithContextCardinality(t *testing.T) {
	ix := indexWith(t, 5, 0) // five candidate areas: v1 says Basic, always
	sp := CompileStep(&xqast.Step{Axis: xpath.AxisSelectWide, Test: xpath.Test{Kind: xpath.TestAnyNode}})
	if got := sp.StrategyFor(ix, true, 2); got != core.StrategyBasic {
		t.Fatalf("2 context rows: %v, want basic", got)
	}
	if got := sp.StrategyFor(ix, true, 1000); got != core.StrategyLoopLifted {
		t.Fatalf("1000 context rows: %v, want looplifted", got)
	}
	// Both outcomes are recorded; EXPLAIN's est{} shows the latest.
	resolved := sp.ResolvedStrategies()
	if len(resolved) != 2 || resolved[0] != core.StrategyBasic || resolved[1] != core.StrategyLoopLifted {
		t.Fatalf("ResolvedStrategies = %v, want [basic looplifted]", resolved)
	}
	if ce := sp.LastCost(); ce == nil || ce.CtxRows != 1000 {
		t.Fatalf("LastCost = %+v, want CtxRows 1000", ce)
	}
}

// TestStrategyForNoAlloc: a warm StrategyFor prices the step without
// allocating — the EXPLAIN record is copied to the heap only when the
// decision differs from the stored one.
func TestStrategyForNoAlloc(t *testing.T) {
	ix := indexWith(t, 50, 0)
	sp := CompileStep(&xqast.Step{Axis: xpath.AxisSelectNarrow, Test: xpath.Test{Kind: xpath.TestAnyNode}})
	sp.StrategyFor(ix, true, 8)
	if n := testing.AllocsPerRun(100, func() { sp.StrategyFor(ix, true, 8) }); n != 0 {
		t.Fatalf("warm StrategyFor allocates %v times per call, want 0", n)
	}
}

// TestStrategyPerIndex pins that one step resolves independently per region
// index: the same plan bound to a tiny and a huge layer uses Basic for one
// and Loop-Lifted for the other.
func TestStrategyPerIndex(t *testing.T) {
	sp := CompileStep(&xqast.Step{Axis: xpath.AxisSelectWide, Test: xpath.Test{Kind: xpath.TestAnyNode}})
	tiny := indexWith(t, 3, 0)
	huge := indexWith(t, 300, 0)
	if got := sp.StrategyFor(tiny, true, 4); got != core.StrategyBasic {
		t.Fatalf("tiny index: %v", got)
	}
	if got := sp.StrategyFor(huge, true, 4); got != core.StrategyLoopLifted {
		t.Fatalf("huge index: %v", got)
	}
	resolved := sp.ResolvedStrategies()
	if len(resolved) != 2 || resolved[0] != core.StrategyBasic || resolved[1] != core.StrategyLoopLifted {
		t.Fatalf("ResolvedStrategies = %v", resolved)
	}
}

func TestResolvedStrategiesEmptyBeforeUse(t *testing.T) {
	sp := CompileStep(&xqast.Step{Axis: xpath.AxisSelectNarrow, Test: xpath.Test{Kind: xpath.TestAnyNode}})
	if got := sp.ResolvedStrategies(); len(got) != 0 {
		t.Fatalf("ResolvedStrategies = %v, want empty", got)
	}
}

func TestCompiledTestMemoized(t *testing.T) {
	d, err := xmlparse.Parse("d.xml", []byte(`<doc><a/><b/></doc>`))
	if err != nil {
		t.Fatal(err)
	}
	sp := CompileStep(&xqast.Step{Axis: xpath.AxisChild, Test: xpath.NameTest("a")})
	c1 := sp.CompiledTest(d)
	c2 := sp.CompiledTest(d)
	if c1 != c2 {
		t.Fatalf("CompiledTest not stable: %+v vs %+v", c1, c2)
	}
	// pre 0 is the document node, 1 <doc>, 2 <a>, 3 <b>.
	if !c1.Matches(d, 2) || c1.Matches(d, 3) {
		t.Fatal("compiled test matches wrong nodes")
	}
}
