package xqplan

import "soxq/internal/core"

// This file is cost model v2: the Basic vs Loop-Lifted choice for a StandOff
// step, made from the index statistics AND the context cardinality observed
// at execution time. Version 1 compared the candidate estimate against a
// fixed 64-candidate threshold, which ignores the one quantity the
// Loop-Lifted join exists to amortise — how many loop iterations share the
// scan. With one context row the Basic merge is always right no matter how
// many candidates there are (there is no loop to lift); with thousands of
// iterations even a five-candidate scan is worth lifting, because Basic
// re-runs the merge per iteration.
//
// The model prices the two algorithms in visited rows:
//
//	basic      = ctxRows·candidates + ctxRows
//	looplifted = candidates + ctxRows + llSetupRows
//
// Basic runs one full merge per iteration (no early break — fullScan in
// core.joinBasic), so it scans the candidate sequence once per context row
// plus the row itself. Loop-Lifted scans candidates and context once, but
// pays a fixed machinery cost (pseudo-key bookkeeping, the counting sort and
// dedup over all iterations' pairs) modelled as llSetupRows. The cutoff is
// therefore not a constant candidate count: Basic wins exactly while
// (ctxRows-1)·candidates <= llSetupRows.

// llSetupRows is the Loop-Lifted join's fixed machinery cost expressed in
// scanned-row equivalents. Calibrated with `sobench -calibrate` (synthetic
// layers, forced basic vs forced looplifted, doubling the context
// cardinality until Loop-Lifted wins, crossover expressed as (ctx-1)·cand):
// on the reference container the measured crossovers bracket the overhead
// between ~16 (cand=16 still Basic at ctx=2) and ~64 (cand=64 already
// Loop-Lifted at ctx=2) row-equivalents; 32 is the geometric middle. The
// small value matches the paper's finding that loop-lifting pays off almost
// immediately — Basic survives only for genuinely tiny loops and the
// single-iteration case. Re-run the calibration when the join inner loops
// change materially.
const llSetupRows = 32

// CostEstimate is one cost-model decision: the candidate estimate taken from
// the region index statistics, the context cardinality observed at
// execution, the per-strategy cost estimates, and the chosen strategy.
// EXPLAIN renders it so every strategy choice is auditable.
type CostEstimate struct {
	// Candidates is the estimated candidate-area cardinality: the per-tag
	// element count under the by-name pushdown policy, the full area count
	// otherwise. An upper bound on what the join will scan.
	Candidates int
	// CtxRows is the observed context cardinality the decision was made
	// for: iterations × context nodes, flattened — the row count of the
	// paper's iter|start|end context table.
	CtxRows int
	// Basic and LoopLifted are the modelled costs, in scanned-row
	// equivalents.
	Basic      float64
	LoopLifted float64
	// EstOut is the predicted output cardinality of the step: the candidate
	// upper bound from the index statistics (a StandOff step cannot produce
	// more distinct areas than its candidate sequence holds).
	EstOut int
	// Strategy is the chosen algorithm (the cheaper estimate).
	Strategy core.Strategy
	// DeltaIns and DeltaDead are the annotation write-path delta sizes of
	// the index the estimate was priced against (both zero for a
	// compacted/fresh index): candidates stream through the LSM-style
	// delta merge rather than a plain base scan. EXPLAIN renders them as
	// the merge{...} operator annotation.
	DeltaIns  int
	DeltaDead int
}

// estimateCandidates bounds the candidate cardinality of a step from the
// index statistics (the section 3.3 estimate): with a pushed-down name test
// the per-tag element cardinality, otherwise every area-annotation.
func estimateCandidates(policy CandPolicy, name string, ix *core.RegionIndex) int {
	st := ix.Stats()
	est := st.Areas
	if policy == CandByName {
		if card := st.Card(name); card < est {
			est = card
		}
	}
	return est
}

// EstimateCost prices both join algorithms for one (step policy, index,
// observed context cardinality) combination and picks the cheaper one.
// ctxRows < 1 is treated as 1: a step always joins at least one context row.
func EstimateCost(policy CandPolicy, name string, ix *core.RegionIndex, ctxRows int) CostEstimate {
	if ctxRows < 1 {
		ctxRows = 1
	}
	est := estimateCandidates(policy, name, ix)
	ce := CostEstimate{
		Candidates: est,
		CtxRows:    ctxRows,
		Basic:      float64(ctxRows)*float64(est) + float64(ctxRows),
		LoopLifted: float64(est) + float64(ctxRows) + llSetupRows,
		EstOut:     est,
	}
	ce.DeltaIns, ce.DeltaDead = ix.DeltaStats()
	if ce.Basic <= ce.LoopLifted {
		ce.Strategy = core.StrategyBasic
	} else {
		ce.Strategy = core.StrategyLoopLifted
	}
	return ce
}
