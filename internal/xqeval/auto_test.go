package xqeval

import (
	"fmt"
	"strings"
	"testing"

	"soxq/internal/core"
	"soxq/internal/xqplan"
)

// standOffStepOf returns the single StandOff step of a compiled plan.
func standOffStepOf(t *testing.T, plan *xqplan.Plan) *xqplan.StepPlan {
	t.Helper()
	var found *xqplan.StepPlan
	for _, prog := range plan.Programs() {
		for _, sp := range prog {
			if sp.StandOff {
				if found != nil {
					t.Fatal("plan has more than one StandOff step")
				}
				found = sp
			}
		}
	}
	if found == nil {
		t.Fatal("plan has no StandOff step")
	}
	return found
}

// standoffDoc builds a document with n s-areas and n/8+1 t-areas so that at
// n=300 the two layers sit on opposite sides of the cost model's cutoff.
func standoffDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<s start="%d" end="%d"/>`, i*10, i*10+9)
	}
	for i := 0; i < n/8+1; i++ {
		fmt.Fprintf(&sb, `<t start="%d" end="%d"/>`, i*80, i*80+19)
	}
	sb.WriteString("</doc>")
	return sb.String()
}

// TestAutoStrategyMatchesForced: results under StrategyAuto are identical to
// the forced variants on both a tiny and a huge annotation layer (the cost
// model only changes the algorithm, never the answer).
func TestAutoStrategyMatchesForced(t *testing.T) {
	for _, n := range []int{8, 200} {
		for _, q := range []string{
			`doc("d.xml")//s/select-wide::t`,
			`for $x in doc("d.xml")//t return $x/select-narrow::s`,
			`count(doc("d.xml")//s/reject-narrow::t)`,
		} {
			h := newHarness()
			h.addDoc(t, "d.xml", standoffDoc(n))
			ref, err := h.run(t, q, core.StrategyLoopLifted)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, q, err)
			}
			got, err := h.run(t, q, core.StrategyAuto)
			if err != nil {
				t.Fatalf("n=%d %s auto: %v", n, q, err)
			}
			if serialize(got) != serialize(ref) {
				t.Fatalf("n=%d %s: auto %q != looplifted %q", n, q, serialize(got), serialize(ref))
			}
		}
	}
}

// TestAutoStrategyResolution pins that an auto run resolves the per-step
// choice from the index statistics, and that a forced strategy bypasses the
// cost model entirely (the engine-level override wins).
func TestAutoStrategyResolution(t *testing.T) {
	q := `doc("d.xml")//s/select-narrow::t`
	h := newHarness()
	h.addDoc(t, "d.xml", standoffDoc(300)) // s huge, t tiny

	plan, err := h.compile(q)
	if err != nil {
		t.Fatal(err)
	}
	soStep := standOffStepOf(t, plan)

	// Forced run: the step records no decision — the cost model was never asked.
	if _, err := h.newEvaluator(plan, core.StrategyBasic).Run(); err != nil {
		t.Fatal(err)
	}
	if got := soStep.ResolvedStrategies(); len(got) != 0 {
		t.Fatalf("forced run resolved %v, want nothing", got)
	}

	// Auto run: select-narrow::t has a tiny candidate layer, but 300 s
	// context rows feed the join — cost model v2 lifts the loop (Basic
	// would rescan the candidates 300 times).
	if _, err := h.newEvaluator(plan, core.StrategyAuto).Run(); err != nil {
		t.Fatal(err)
	}
	got := soStep.ResolvedStrategies()
	if len(got) != 1 || got[0] != core.StrategyLoopLifted {
		t.Fatalf("auto run resolved %v, want [looplifted]", got)
	}

	// The converse: a single context row over the huge s layer. The v1
	// threshold (300 candidates > 64) would force Loop-Lifted; v2 sees
	// nothing to lift and keeps the one-shot Basic merge.
	plan2, err := h.compile(`doc("d.xml")/doc/select-narrow::s`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.newEvaluator(plan2, core.StrategyAuto).Run(); err != nil {
		t.Fatal(err)
	}
	got = standOffStepOf(t, plan2).ResolvedStrategies()
	if len(got) != 1 || got[0] != core.StrategyBasic {
		t.Fatalf("single-context auto run resolved %v, want [basic]", got)
	}
}

// TestAutoFunctionForm: the so:select-* function form synthesises its step
// at run time and still works under StrategyAuto.
func TestAutoFunctionForm(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "d.xml", standoffDoc(20))
	q := `count(so:select-wide(doc("d.xml")//s))`
	ref, err := h.run(t, q, core.StrategyLoopLifted)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.run(t, q, core.StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(got) != serialize(ref) {
		t.Fatalf("auto %q != looplifted %q", serialize(got), serialize(ref))
	}
}
