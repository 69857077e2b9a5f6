package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"soxq"
	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xmlparse"
)

// The layer ladder replays a workload's reads through a stack of public
// calls, each rung adding one layer to the rung below:
//
//	join       core.Join over the query's StandOff steps
//	drain      Engine.StreamQuery / StreamQueryCorpus (or the result cache),
//	           drained with Cursor.Next
//	value      + Cursor.Value per row
//	serialize  + Value.XML and the NDJSON (or XML line) encoding soxqd does
//	http       the same read as a round trip to the server
//
// Every rung call is recorded as a span. A layer's self time is the
// difference between the medians of adjacent rungs.
const (
	rungJoin = iota
	rungDrain
	rungValue
	rungSerialize
	rungHTTP
	numRungs
)

var rungNames = [numRungs]string{"core.Join", "xqexec.drain", "soxq.value", "tree.serialize", "soxqd.http"}

// joinStep is one StandOff step of a join program.
type joinStep struct {
	op    core.Op
	name  string                            // candidate element name
	lift  bool                              // each context node starts its own iteration (a for-loop body)
	first bool                              // keep the first match per iteration (a [1] predicate)
	keep  func(d *tree.Doc, pre int32) bool // filter on the step's matches
}

// joinChain is a context element name followed by StandOff steps.
type joinChain struct {
	start string
	keep  func(d *tree.Doc, pre int32) bool // filter on the context elements
	steps []joinStep
}

// indexedDoc is the benchmark's own parse and region index of a document,
// which the join rung runs core.Join over.
type indexedDoc struct {
	d  *tree.Doc
	ix *core.RegionIndex
}

func indexDoc(name string, xml []byte) (indexedDoc, error) {
	d, err := xmlparse.Parse(name, xml)
	if err != nil {
		return indexedDoc{}, err
	}
	ix, err := core.BuildIndex(d, core.DefaultOptions())
	return indexedDoc{d: d, ix: ix}, err
}

func attrIs(name, value string) func(*tree.Doc, int32) bool {
	return func(d *tree.Doc, pre int32) bool {
		v, ok := d.AttrByName(pre, name)
		return ok && v == value
	}
}

func startIn(lo, hi int) func(*tree.Doc, int32) bool {
	return func(d *tree.Doc, pre int32) bool {
		v, _ := d.AttrByName(pre, "start")
		n, err := strconv.Atoi(v)
		return err == nil && n >= lo && n < hi
	}
}

// joinProgram is the StandOff join work of read r: the chains of joins its
// plan runs, per document. nil means the read runs no join (a result-cache
// hit).
func (b *bench) joinProgram(r request) []joinChain {
	sn := core.SelectNarrow
	switch b.opts.workload {
	case "xmark-joins":
		switch r.tpl {
		case 0:
			return []joinChain{{start: "site", steps: []joinStep{
				{op: sn, name: "people"}, {op: sn, name: "person", keep: attrIs("id", "person"+strconv.Itoa(r.person))},
				{op: sn, name: "name", lift: true}}}}
		case 1:
			return []joinChain{{start: "site", steps: []joinStep{
				{op: sn, name: "open_auctions"}, {op: sn, name: "open_auction"},
				{op: sn, name: "bidder", lift: true, first: true}, {op: sn, name: "increase"}}}}
		case 2:
			return []joinChain{{start: "site", steps: []joinStep{
				{op: sn, name: "regions"}, {op: sn, name: "item", lift: true}}}}
		default:
			var chains []joinChain
			for _, n := range []string{"description", "annotation", "emailaddress"} {
				chains = append(chains, joinChain{start: "site", steps: []joinStep{{op: sn, name: n}}})
			}
			return chains
		}
	case "corpus-stream":
		switch r.tpl {
		case 2:
			return []joinChain{{start: "scene", steps: []joinStep{{op: core.SelectWide, name: "scene"}, {op: sn, name: "hit"}}}}
		case 3:
			return []joinChain{{start: "scene", steps: []joinStep{{op: core.RejectNarrow, name: "hit"}}}}
		case 4:
			return nil // served from the warm result cache
		default:
			return []joinChain{{start: "scene", steps: []joinStep{{op: sn, name: "hit"}}}}
		}
	default:
		chain := joinChain{start: "scene", steps: []joinStep{{op: sn, name: "mark"}}}
		if r.tpl == 1 {
			chain.keep = startIn(r.windowLo*bigSpan, r.windowHi*bigSpan)
		}
		return []joinChain{chain}
	}
}

// runJoins runs a join program over one document and returns the rows of
// its last steps. Single-iteration joins run Basic, lifted ones Loop-Lifted.
func runJoins(doc indexedDoc, chains []joinChain, arena *core.JoinArena) int {
	rows := 0
	for _, ch := range chains {
		id, ok := doc.d.Dict().Lookup(ch.start)
		if !ok {
			continue
		}
		var ctx []core.CtxNode
		for _, pre := range doc.d.ElementsByName(id) {
			if ch.keep == nil || ch.keep(doc.d, pre) {
				ctx = append(ctx, core.CtxNode{Pre: pre})
			}
		}
		nIters := int32(1)
		for _, st := range ch.steps {
			if st.lift {
				for i := range ctx {
					ctx[i].Iter = int32(i)
				}
				nIters = int32(max(len(ctx), 1))
			}
			nameID, ok := doc.d.Dict().Lookup(st.name)
			if !ok {
				ctx = ctx[:0]
				break
			}
			strat := core.StrategyLoopLifted
			if nIters == 1 {
				strat = core.StrategyBasic
			}
			pairs := core.Join(doc.ix, st.op, strat, ctx, nIters, doc.ix.FilterByName(nameID), core.JoinConfig{Arena: arena})
			next := make([]core.CtxNode, 0, len(pairs))
			for i, p := range pairs {
				if st.first && i > 0 && pairs[i-1].Iter == p.Iter {
					continue
				}
				if st.keep == nil || st.keep(doc.d, p.Pre) {
					next = append(next, core.CtxNode{Iter: p.Iter, Pre: p.Pre})
				}
			}
			ctx = next
		}
		rows += len(ctx)
	}
	return rows
}

// joinMatches checks the join rung does the read's work: where the read's
// answer is the join's row count (corpus select steps, Q1) or its count
// (Q6, Q7), the join program must find exactly that many rows.
func (b *bench) joinMatches(r request, rows int) bool {
	want, ok := b.want[reqKey{r.tpl, r.query}]
	if !ok {
		return true // model-checked workload: the join document is a snapshot
	}
	switch {
	case b.opts.workload == "corpus-stream" && r.tpl <= 2, b.opts.workload == "xmark-joins" && r.tpl == 0:
		return want.rows == rows
	case b.opts.workload == "xmark-joins" && r.tpl >= 2:
		return want == digestRows([]string{strconv.Itoa(rows)})
	}
	return true
}

// inProcess runs read r on the in-process engine up to the given rung
// (drain, value or serialize) and returns its row count.
func (b *bench) inProcess(t template, query string, rung int) (int, error) {
	switch {
	case rung == rungDrain:
		return eachRow(b.eng, t, query, nil)
	case rung == rungValue:
		return eachRow(b.eng, t, query, func(soxq.Value) {})
	case t.format == "xml":
		return eachRow(b.eng, t, query, func(v soxq.Value) { io.WriteString(io.Discard, v.XML()+"\n") })
	}
	enc := json.NewEncoder(io.Discard)
	var row struct {
		XML string `json:"xml"`
	}
	return eachRow(b.eng, t, query, func(v soxq.Value) {
		row.XML = v.XML()
		enc.Encode(row)
	})
}

// weighted is the mix-weighted mean over templates of f(template).
func (b *bench) weighted(f func(tpl int) float64) float64 {
	s := 0.0
	for tpl, t := range b.templates {
		s += t.weight * f(tpl)
	}
	return s
}

// syncWrite applies the model's next write to the server and to the
// in-process engine, keeping the two in the same state (annotate-mixed).
func (b *bench) syncWrite(c *client) (time.Duration, error) {
	w := b.model.next()
	if err := c.annotate(bigDoc, w); err != nil {
		return 0, err
	}
	b.model.ack()
	t0 := time.Now()
	err := applyWrite(b.eng, bigDoc, w)
	return time.Since(t0), err
}

func applyWrite(eng *soxq.Engine, docName string, w write) error {
	if w.insert {
		return eng.InsertAnnotation(docName, "mark", soxq.Region{Start: int64(w.start), End: int64(w.start + markWidth)})
	}
	n, err := eng.DeleteAnnotation(docName, "mark", int64(w.start), int64(w.start+markWidth))
	if err == nil && n != 1 {
		err = fmt.Errorf("in-process delete at %d removed %d marks", w.start, n)
	}
	return err
}

// runLadder replays each template's reads through every rung, interleaving
// the rungs rep by rep so drift affects them alike, and returns each
// template's rung medians in ms. Each template gets an equal share of budget
// and at least minReps reps.
func (b *bench) runLadder(budget time.Duration, joinDocs []indexedDoc) ([][numRungs]float64, error) {
	const minReps, maxReps = 5, 200
	c := newClient(b.srv.base)
	defer c.close()
	arena := core.AcquireJoinArena()
	defer arena.Release()
	lad := make([][numRungs]float64, len(b.templates))
	runtime.GC()
	for tpl, t := range b.templates {
		var reqs []request
		for _, r := range b.reqs {
			if r.tpl == tpl {
				reqs = append(reqs, r)
			}
		}
		var samples [numRungs][]float64
		stop := time.Now().Add(budget / time.Duration(len(b.templates)))
		for rep := 0; rep < maxReps && (rep < minReps || time.Now().Before(stop)); rep++ {
			r := reqs[rep%len(reqs)]
			traceID := -(tpl*maxReps + rep + 1) // ladder traces are negative, window ones not
			want := -1
			if b.model != nil {
				// One write to both sides, then one unmeasured read on
				// each, which pays the delta merge (core.delta_merge_ms
				// measures it): the rungs then time warm reads.
				if _, err := b.syncWrite(c); err != nil {
					return nil, err
				}
				if _, err := b.inProcess(t, r.query, rungDrain); err != nil {
					return nil, err
				}
				if _, ok := b.read(c, r); !ok {
					return nil, fmt.Errorf("ladder read of %s failed", t.name)
				}
			}
			// The in-process rungs run in an order rotated rep by rep, so
			// whatever a read leaves warm for the next favours none of them.
			inproc := [3]int{rungDrain, rungValue, rungSerialize}
			k := rep % len(inproc)
			order := append(append([]int{rungJoin}, append(inproc[k:], inproc[:k]...)...), rungHTTP)
			for _, rung := range order {
				t0 := time.Now()
				rows := 0
				var err error
				switch rung {
				case rungJoin:
					if prog := b.joinProgram(r); prog != nil {
						for _, d := range joinDocs {
							rows += runJoins(d, prog, arena)
						}
						if rep == 0 && !b.joinMatches(r, rows) {
							err = fmt.Errorf("join program finds %d rows, the served answer disagrees", rows)
						}
					}
				case rungHTTP:
					reply, ok := b.read(c, r)
					if !ok {
						return nil, fmt.Errorf("ladder read of %s failed", t.name)
					}
					rows = reply.got.rows
				default:
					rows, err = b.inProcess(t, r.query, rung)
				}
				t1 := time.Now()
				if err != nil {
					return nil, fmt.Errorf("ladder %s %s: %v", rungNames[rung], t.name, err)
				}
				if rung > rungJoin && want < 0 {
					want = rows
				} else if rung > rungJoin && rows != want {
					return nil, fmt.Errorf("ladder %s %s: %d rows, %s gave %d", rungNames[rung], t.name, rows, rungNames[order[1]], want)
				}
				b.record(traceID, 0, rungNames[rung]+" "+t.name, t0, t1)
				samples[rung] = append(samples[rung], ms(t1.Sub(t0)))
			}
		}
		for rung := range samples {
			lad[tpl][rung] = median(samples[rung])
		}
	}
	return lad, nil
}

// replayWrites brings the in-process engine to the server's state by
// applying every write the workload's writer made, and returns the time of
// the writes that crossed the auto-compaction threshold and of the others.
func (b *bench) replayWrites() (compact, plain []float64, err error) {
	for i, w := range b.model.writes {
		t0 := time.Now()
		if err := applyWrite(b.eng, bigDoc, w); err != nil {
			return nil, nil, err
		}
		d := ms(time.Since(t0))
		if (i+1)%soxq.DefaultCompactThreshold == 0 {
			compact = append(compact, d)
		} else {
			plain = append(plain, d)
		}
	}
	return compact, plain, nil
}

// deltaMerge measures what the first read after a write pays over a warm
// read of the same prepared query: the delta layers' merge.
func (b *bench) deltaMerge(c *client) (float64, error) {
	const reps = 15
	diffs := make([]float64, len(b.templates))
	for tpl, t := range b.templates {
		q := b.reqs[tpl].query
		if t.corpus != "" {
			q = strings.ReplaceAll(q, `doc("`+t.corpus+`")`, `doc("`+bigDoc+`")`)
		}
		p, err := b.eng.Prepare(q)
		if err != nil {
			return 0, err
		}
		drain := func() (time.Duration, error) {
			t0 := time.Now()
			cur, err := p.Stream(soxq.Config{StreamChunk: 1024})
			if err != nil {
				return 0, err
			}
			for cur.Next() {
			}
			return time.Since(t0), cur.Close()
		}
		var first, warm []float64
		for i := 0; i < reps; i++ {
			if _, err := b.syncWrite(c); err != nil {
				return 0, err
			}
			d1, err := drain()
			if err != nil {
				return 0, err
			}
			d2, err := drain()
			if err != nil {
				return 0, err
			}
			first, warm = append(first, ms(d1)), append(warm, ms(d2))
		}
		diffs[tpl] = median(first) - median(warm)
	}
	return b.weighted(func(tpl int) float64 { return diffs[tpl] }), nil
}

// analyzeCounts returns the candidates StandOff steps scanned and the rows
// read r returns, from EXPLAIN ANALYZE on the in-process engine. Corpus
// reads are analyzed on their first member.
func (b *bench) analyzeCounts(r request) (cand, rows int64, err error) {
	t := b.templates[r.tpl]
	q := r.query
	if t.corpus != "" {
		member := b.corpora[0].members[0]
		q = strings.ReplaceAll(q, `doc("`+t.corpus+`")`, `doc("`+member+`")`)
	}
	p, err := b.eng.Prepare(q)
	if err != nil {
		return 0, 0, err
	}
	res, pe, err := p.Analyze(soxq.Config{})
	if err != nil {
		return 0, 0, err
	}
	var walk func(n *soxq.OpNode)
	walk = func(n *soxq.OpNode) {
		if n.Kind == "step" && n.Obs != nil {
			cand += n.Obs.Candidates
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, n := range pe.Plan {
		walk(n)
	}
	return cand, int64(res.Len()), nil
}

// probeWritesInProcess times in-process annotation writes on the workload's
// write document (no reads in between), µs each. In annotate-mixed the
// writes also go to the server, which stays in the model's state.
func (b *bench) probeWritesInProcess(c *client) ([]float64, error) {
	var us []float64
	model := b.model
	if model == nil {
		model = newMarkModel(newRand(b.opts.seed ^ 0x77))
		model.insertOnly = true
	}
	for i := 0; i < probeWrites; i++ {
		var d time.Duration
		var err error
		if b.model != nil {
			d, err = b.syncWrite(c)
		} else {
			w := model.next()
			t0 := time.Now()
			err = applyWrite(b.eng, b.writeDoc, w)
			d = time.Since(t0)
		}
		if err != nil {
			return nil, err
		}
		us = append(us, float64(d)/float64(time.Microsecond))
	}
	if b.model == nil {
		res, err := b.eng.Query(`count(doc("` + b.writeDoc + `")//mark)`)
		if err != nil {
			return nil, err
		}
		if res.String() != strconv.Itoa(probeWrites) {
			return nil, fmt.Errorf("in-process probe inserted %d marks, the document holds %s", probeWrites, res.String())
		}
	}
	return us, nil
}
