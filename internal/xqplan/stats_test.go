package xqplan

import (
	"testing"

	"soxq/internal/core"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
)

// TestRecordJoinCounters pins the per-step join counters a collector
// accumulates: context rows and wall time of each recorded join.
func TestRecordJoinCounters(t *testing.T) {
	sp := CompileStep(&xqast.Step{Axis: xpath.AxisSelectNarrow, Test: xpath.Test{Kind: xpath.TestAnyNode}})
	st := NewExecStats()
	st.RecordJoin(sp, 100, core.StrategyBasic, 10, 1010)
	o, ok := st.StepObs(sp)
	if !ok || o.JoinRows != 10 || o.JoinNanos != 1010 {
		t.Fatalf("StepObs join counters = %+v, want rows=10 nanos=1010", o)
	}
}
