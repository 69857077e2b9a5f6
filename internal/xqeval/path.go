package xqeval

import (
	"time"

	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
	"soxq/internal/xqplan"
)

// evalPath evaluates a path expression: establish the starting context, then
// apply the path's compiled step program in bulk across all iterations, with
// per-iteration document-order deduplication after every step (XPath
// semantics, and the contract of the StandOff steps in section 3.2). The //
// fusion, name tests and stand-off decisions were all made at compile time;
// this function only executes them.
func (ev *Evaluator) evalPath(p *xqast.Path, f *frame) (LLSeq, error) {
	cur, err := ev.pathStart(p, f)
	if err != nil {
		return LLSeq{}, err
	}
	for _, sp := range ev.Plan.Program(p) {
		cur, err = ev.evalStep(sp, cur, f)
		if err != nil {
			return LLSeq{}, err
		}
	}
	ev.Stats.RecordOp(p, 0, int64(cur.Total()))
	return cur, nil
}

// pathStart establishes the starting context of a path: the start expression
// (or the frame's context item), hoisted to the document root for absolute
// paths.
func (ev *Evaluator) pathStart(p *xqast.Path, f *frame) (LLSeq, error) {
	var cur LLSeq
	if p.Start != nil {
		s, err := ev.eval(p.Start, f)
		if err != nil {
			return LLSeq{}, err
		}
		cur = s
	} else {
		if f.ctx == nil {
			return LLSeq{}, errf(codeNoContext, "path expression needs a context item")
		}
		cur = ev.scrMaterialize(f.ctx)
	}
	if p.Absolute {
		b := newLLBuilder(f.n)
		for i := 0; i < f.n; i++ {
			g := cur.Group(i)
			items := make([]Item, 0, len(g))
			for _, it := range g {
				if !it.IsNode() {
					return LLSeq{}, errf(codeType, "cannot take the root of an atomic value")
				}
				items = append(items, NodeItem(it.D, 0))
			}
			b.add(sortDedupNodes(items)...)
		}
		cur = b.done()
	}
	return cur, nil
}

// evalFilter evaluates E[p1][p2]... — predicates over an arbitrary sequence.
func (ev *Evaluator) evalFilter(v *xqast.Filter, f *frame) (LLSeq, error) {
	cur, err := ev.eval(v.Base, f)
	if err != nil {
		return LLSeq{}, err
	}
	rowsIn := int64(cur.Total())
	for _, pred := range v.Predicates {
		cur, err = ev.applyPredicate(cur, pred, f, false)
		if err != nil {
			return LLSeq{}, err
		}
	}
	ev.Stats.RecordOp(v, rowsIn, int64(cur.Total()))
	return cur, nil
}

// stepRow is one context node of a step with its originating iteration.
type stepRow struct {
	iter int32
	item Item
}

// evalStep applies one compiled axis step to the context sequence.
func (ev *Evaluator) evalStep(sp *xqplan.StepPlan, ctx LLSeq, f *frame) (LLSeq, error) {
	// Flatten the context. For forward and select steps every context node
	// becomes one "inner iteration" so positional predicates see
	// per-context-node positions; the union of per-node results equals the
	// sequence-level semi-join. The reject steps are anti-joins over the
	// *whole* context sequence of an iteration (section 3.1: "not
	// contained in ANY area-annotation in S1"), so there the group is the
	// iteration itself — a union of per-node complements would be wrong.
	perIteration := sp.Axis == xpath.AxisRejectNarrow || sp.Axis == xpath.AxisRejectWide
	if !perIteration && !sp.StandOff && len(sp.Predicates) == 0 {
		return ev.evalStepTreeFast(sp, ctx)
	}
	rows := make([]stepRow, 0, ctx.Total())
	if perIteration {
		for i := 0; i < ctx.N(); i++ {
			rows = append(rows, stepRow{iter: int32(i)})
		}
		for i := 0; i < ctx.N(); i++ {
			for _, it := range ctx.Group(i) {
				if !it.IsNode() {
					return LLSeq{}, errf(codeType, "axis step applied to an atomic value")
				}
			}
		}
	} else {
		for i := 0; i < ctx.N(); i++ {
			for _, it := range ctx.Group(i) {
				if !it.IsNode() {
					return LLSeq{}, errf(codeType, "axis step applied to an atomic value")
				}
				rows = append(rows, stepRow{iter: int32(i), item: it})
			}
		}
	}
	var results [][]Item
	var err error
	if sp.StandOff {
		if perIteration {
			results, err = ev.standOffRejectStep(sp, ctx)
		} else {
			results, err = ev.standOffStep(sp, rows)
		}
	} else {
		results, err = ev.treeStep(sp, rows)
	}
	if err != nil {
		return LLSeq{}, err
	}
	// Predicates, evaluated per context node group.
	for _, pred := range sp.Predicates {
		results, err = ev.applyStepPredicate(results, rows, pred, f, sp.Axis.Reverse())
		if err != nil {
			return LLSeq{}, err
		}
	}
	// Merge per original iteration, dedup in document order.
	b := newLLBuilder(ctx.N())
	r := 0
	for i := 0; i < ctx.N(); i++ {
		var items []Item
		for r < len(rows) && rows[r].iter == int32(i) {
			items = append(items, results[r]...)
			r++
		}
		b.add(sortDedupNodes(items)...)
	}
	out := b.done()
	ev.Stats.RecordStep(sp, int64(ctx.Total()), int64(out.Total()))
	return out, nil
}

// evalStepTreeFast is the predicate-free tree-axis step: matches are written
// straight into the output items buffer — no per-row result slices, no
// stepRow table — and each iteration's segment is sort-deduped in place. The
// per-row pre scratch lives on the evaluator (the loop below never re-enters
// eval, so the buffer cannot be in use twice).
func (ev *Evaluator) evalStepTreeFast(sp *xqplan.StepPlan, ctx LLSeq) (LLSeq, error) {
	// The output buffers come from the scoped arena during streaming runs (a
	// builder loan — its reclaim reads the final headers, so growth past the
	// context-size hint is safe); the builder is only used as a buffer pair,
	// the segments below are written directly.
	ob := ev.scrBuilderCap(ctx.N(), ctx.Total())
	out := ob.seq
	for i := 0; i < ctx.N(); i++ {
		segStart := len(out.Items)
		for _, it := range ctx.Group(i) {
			switch {
			case it.Kind == KAttr:
				res, err := attrSourceStep(sp, it)
				if err != nil {
					return LLSeq{}, err
				}
				out.Items = append(out.Items, res...)
			case !it.IsNode():
				return LLSeq{}, errf(codeType, "axis step applied to an atomic value")
			case sp.Axis == xpath.AxisAttribute:
				out.Items = appendAttrAxis(out.Items, it, sp.Test)
			default:
				ev.stepPres = xpath.AppendCompiledStep(ev.stepPres[:0], it.D, sp.Axis, sp.CompiledTest(it.D), it.Pre)
				for _, p := range ev.stepPres {
					out.Items = append(out.Items, NodeItem(it.D, p))
				}
			}
		}
		seg := sortDedupNodes(out.Items[segStart:])
		out.Items = out.Items[:segStart+len(seg)]
		out.Off = append(out.Off, int32(len(out.Items)))
	}
	ob.seq = out // write the final headers back so the reclaim sees growth
	ev.Stats.RecordStep(sp, int64(ctx.Total()), int64(len(out.Items)))
	return out, nil
}

// strategyFor resolves the join strategy of one StandOff step against one
// region index and the context cardinality this execution observed
// (iterations × context nodes — the second input of cost model v2): a
// forced engine strategy (the benchmarking modes) always wins; StrategyAuto
// defers to the step's cost model, priced against ix on every call.
func (ev *Evaluator) strategyFor(sp *xqplan.StepPlan, ix *core.RegionIndex, ctxRows int) core.Strategy {
	if ev.Strategy != core.StrategyAuto {
		return ev.Strategy
	}
	return sp.StrategyFor(ix, ev.Pushdown, ctxRows)
}

// statsNow and statsSince time a join only when an ANALYZE collector is
// attached — the plain execution paths pay a nil check, not a clock read.
func statsNow(st *xqplan.ExecStats) time.Time {
	if st == nil {
		return time.Time{}
	}
	return time.Now()
}

func statsSince(st *xqplan.ExecStats, t0 time.Time) int64 {
	if st == nil {
		return 0
	}
	return time.Since(t0).Nanoseconds()
}

// countJoin feeds the always-on per-algorithm join counter. Called at every
// core.Join call site (bulk and chunked, select and reject side), so the
// counters reflect join invocations actually run — one atomic add each.
func (ev *Evaluator) countJoin(strat core.Strategy) {
	m := ev.Met
	if m == nil {
		return
	}
	switch strat {
	case core.StrategyBasic:
		m.JoinBasic.Inc()
	case core.StrategyLoopLifted:
		m.JoinLoopLifted.Inc()
	default:
		m.JoinNaive.Inc()
	}
}

// treeStep evaluates a standard axis per context node, using the step's
// per-document pre-compiled node test.
func (ev *Evaluator) treeStep(sp *xqplan.StepPlan, rows []stepRow) ([][]Item, error) {
	results := make([][]Item, len(rows))
	for r, row := range rows {
		it := row.item
		if it.Kind == KAttr {
			res, err := attrSourceStep(sp, it)
			if err != nil {
				return nil, err
			}
			results[r] = res
			continue
		}
		if sp.Axis == xpath.AxisAttribute {
			results[r] = attrAxis(it, sp.Test)
			continue
		}
		pres := xpath.CompiledStep(it.D, sp.Axis, sp.CompiledTest(it.D), it.Pre)
		if len(pres) == 0 {
			continue
		}
		items := make([]Item, len(pres))
		for k, p := range pres {
			items[k] = NodeItem(it.D, p)
		}
		results[r] = items
	}
	return results, nil
}

// attrAxis returns the matching attribute nodes of an element.
func attrAxis(it Item, test xpath.Test) []Item {
	return appendAttrAxis(nil, it, test)
}

// appendAttrAxis appends the matching attribute nodes of an element to dst.
func appendAttrAxis(dst []Item, it Item, test xpath.Test) []Item {
	if it.D.Kind(it.Pre) != tree.ElementNode {
		return dst
	}
	if test.Kind != xpath.TestAttribute && test.Kind != xpath.TestAnyNode {
		return dst
	}
	lo, hi := it.D.Attrs(it.Pre)
	for a := lo; a < hi; a++ {
		if test.Name == "" || it.D.AttrName(a) == test.Name {
			dst = append(dst, AttrItem(it.D, it.Pre, a))
		}
	}
	return dst
}

// attrSourceStep evaluates the few axes that make sense from an attribute
// node context.
func attrSourceStep(sp *xqplan.StepPlan, it Item) ([]Item, error) {
	c := sp.CompiledTest(it.D)
	switch sp.Axis {
	case xpath.AxisParent:
		if c.Matches(it.D, it.Pre) {
			return []Item{NodeItem(it.D, it.Pre)}, nil
		}
		return nil, nil
	case xpath.AxisAncestor, xpath.AxisAncestorOrSelf:
		var out []Item
		pres := xpath.CompiledStep(it.D, xpath.AxisAncestorOrSelf, c, it.Pre)
		for _, p := range pres {
			out = append(out, NodeItem(it.D, p))
		}
		if sp.Axis == xpath.AxisAncestorOrSelf && sp.Test.Kind == xpath.TestAnyNode {
			out = append(out, it)
		}
		return out, nil
	case xpath.AxisSelf:
		if sp.Test.Kind == xpath.TestAnyNode ||
			(sp.Test.Kind == xpath.TestAttribute && (sp.Test.Name == "" || it.D.AttrName(it.Att) == sp.Test.Name)) {
			return []Item{it}, nil
		}
		return nil, nil
	default:
		// child/descendant/sibling/... of an attribute: empty.
		return nil, nil
	}
}

// standOffStep evaluates a StandOff select axis: partition the context per
// document fragment (section 4.4), run the step's join strategy against each
// document's region index, and map the (iter, pre) pairs back to items.
func (ev *Evaluator) standOffStep(sp *xqplan.StepPlan, rows []stepRow) ([][]Item, error) {
	results := make([][]Item, len(rows))
	docs, byDoc := partitionByDoc(func(add func(iter int32, it Item)) {
		for r, row := range rows {
			add(int32(r), row.item)
		}
	})
	for _, d := range docs {
		// ctxRows for the cost model is the iteration count the join runs
		// over — the Basic variant re-scans the candidate sequence once per
		// iteration, empty iterations included.
		so, err := ev.NewStandOffStream(sp, d, len(rows))
		if err != nil {
			return nil, err
		}
		if so == nil {
			continue // the test can never match an area-annotation
		}
		part := byDoc[d]
		for _, pr := range so.join(sp.SO.Op, part.iters, part.pres, len(rows), len(rows)) {
			if so.Keep(pr.Pre) {
				results[pr.Iter] = append(results[pr.Iter], NodeItem(d, pr.Pre))
			}
		}
	}
	return results, nil
}

// standOffRejectStep evaluates reject-narrow/reject-wide at iteration
// granularity: one anti-join per iteration over all its context nodes.
//
// The anti-join runs per document fragment against that document's
// candidates (section 4.4). An iteration with no context node in some
// document still rejects "all candidates" of documents it touches;
// candidates of untouched documents are out of scope, mirroring that XPath
// steps only return nodes from the documents of their context nodes.
func (ev *Evaluator) standOffRejectStep(sp *xqplan.StepPlan, ctx LLSeq) ([][]Item, error) {
	n := ctx.N()
	results := make([][]Item, n)
	docs, byDoc := partitionByDoc(func(add func(iter int32, it Item)) {
		for i := 0; i < n; i++ {
			for _, it := range ctx.Group(i) {
				add(int32(i), it)
			}
		}
	})
	for _, d := range docs {
		so, err := ev.NewStandOffStream(sp, d, n)
		if err != nil {
			return nil, err
		}
		if so == nil {
			continue
		}
		part := byDoc[d]
		touched := make([]bool, n)
		for _, i := range part.iters {
			touched[i] = true
		}
		for _, pr := range so.join(sp.SO.Op, part.iters, part.pres, n, n) {
			if !touched[pr.Iter] {
				continue // iteration has no context node in this document
			}
			if so.Keep(pr.Pre) {
				results[pr.Iter] = append(results[pr.Iter], NodeItem(d, pr.Pre))
			}
		}
	}
	return results, nil
}

// docPart is one document's share of a bulk StandOff step's context: the
// context node pres with their iterations.
type docPart struct {
	iters, pres []int32
}

// partitionByDoc splits a step context, which each feeds to add one
// (iteration, item) pair at a time, into per-document parts, documents in
// first-seen order. Attributes are never area-annotations and are skipped.
func partitionByDoc(each func(add func(iter int32, it Item))) ([]*tree.Doc, map[*tree.Doc]*docPart) {
	var docs []*tree.Doc
	byDoc := map[*tree.Doc]*docPart{}
	each(func(iter int32, it Item) {
		if it.Kind != KNode {
			return
		}
		part := byDoc[it.D]
		if part == nil {
			part = &docPart{}
			byDoc[it.D] = part
			docs = append(docs, it.D)
		}
		part.iters = append(part.iters, iter)
		part.pres = append(part.pres, it.Pre)
	})
	return docs, byDoc
}

// candidatesFor materialises the candidate sequence for a StandOff step
// whose policy was decided at compile time (section 3.3, xqplan.Decide).
// Only the element-name to name-id resolution happens here, because it is
// per-document. A nil result means the step is statically or dynamically
// empty (the test can never match, or the name does not occur in this
// document).
func (ev *Evaluator) candidatesFor(ix *core.RegionIndex, so xqplan.SOStep) (*core.Candidates, bool) {
	switch so.Policy(ev.Pushdown) {
	case xqplan.CandAll:
		return ix.All(), false
	case xqplan.CandAllFiltered:
		return ix.All(), true
	case xqplan.CandByName:
		id, ok := ix.Doc().Dict().Lookup(so.Name)
		if !ok {
			return nil, false
		}
		return ix.FilterByName(id), false
	default: // CandImpossible: text()/comment()/... never match elements
		return nil, false
	}
}

// applyStepPredicate filters step results with one predicate. Each result
// node is an inner iteration whose context item is the node, position() its
// 1-based index within its context-node group (reversed for reverse axes),
// and last() the group size.
func (ev *Evaluator) applyStepPredicate(results [][]Item, rows []stepRow, pred xqast.Expr, f *frame, reverse bool) ([][]Item, error) {
	total := 0
	for _, g := range results {
		total += len(g)
	}
	rowIters := make([]int32, 0, total) // inner iteration -> frame iteration
	ctxSeq := LLSeq{Off: make([]int32, 1, total+1)}
	pos := make([]int64, 0, total)
	last := make([]int64, 0, total)
	for r, g := range results {
		for k, it := range g {
			rowIters = append(rowIters, rows[r].iter)
			ctxSeq.Items = append(ctxSeq.Items, it)
			ctxSeq.Off = append(ctxSeq.Off, int32(len(ctxSeq.Items)))
			p := int64(k + 1)
			if reverse {
				p = int64(len(g) - k)
			}
			pos = append(pos, p)
			last = append(last, int64(len(g)))
		}
	}
	// Lift the outer frame into the inner iterations so predicates can use
	// enclosing variables.
	frameMap := make([]int32, total)
	copy(frameMap, rowIters)
	nf := f.expand(frameMap)
	nf.ctx = newBinding(ctxSeq)
	nf.pos = pos
	nf.last = last

	verdicts, err := ev.eval(pred, nf)
	if err != nil {
		return nil, err
	}
	out := make([][]Item, len(results))
	j := 0
	for r, g := range results {
		for _, it := range g {
			keep, err := predicateKeep(verdicts.Group(j), pos[j])
			if err != nil {
				return nil, err
			}
			if keep {
				out[r] = append(out[r], it)
			}
			j++
		}
	}
	return out, nil
}

// applyPredicate filters a plain filter expression E[pred] per iteration.
func (ev *Evaluator) applyPredicate(cur LLSeq, pred xqast.Expr, f *frame, reverse bool) (LLSeq, error) {
	total := cur.Total()
	outerOf := make([]int32, 0, total)
	ctxSeq := LLSeq{Off: make([]int32, 1, total+1)}
	pos := make([]int64, 0, total)
	last := make([]int64, 0, total)
	for i := 0; i < cur.N(); i++ {
		g := cur.Group(i)
		for k, it := range g {
			outerOf = append(outerOf, int32(i))
			ctxSeq.Items = append(ctxSeq.Items, it)
			ctxSeq.Off = append(ctxSeq.Off, int32(len(ctxSeq.Items)))
			p := int64(k + 1)
			if reverse {
				p = int64(len(g) - k)
			}
			pos = append(pos, p)
			last = append(last, int64(len(g)))
		}
	}
	nf := f.expand(outerOf)
	nf.ctx = newBinding(ctxSeq)
	nf.pos = pos
	nf.last = last
	verdicts, err := ev.eval(pred, nf)
	if err != nil {
		return LLSeq{}, err
	}
	b := newLLBuilder(cur.N())
	j := 0
	for i := 0; i < cur.N(); i++ {
		var items []Item
		for range cur.Group(i) {
			keep, err := predicateKeep(verdicts.Group(j), pos[j])
			if err != nil {
				return LLSeq{}, err
			}
			if keep {
				items = append(items, ctxSeq.Items[j])
			}
			j++
		}
		b.add(items...)
	}
	return b.done(), nil
}

// predicateKeep decides a predicate verdict: a numeric singleton is a
// position test, anything else goes through the effective boolean value.
func predicateKeep(verdict []Item, position int64) (bool, error) {
	if len(verdict) == 1 && isNumeric(verdict[0]) {
		num, _ := verdict[0].NumericValue()
		return num == float64(position), nil
	}
	return ebv(verdict)
}
