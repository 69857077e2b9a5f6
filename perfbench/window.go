package main

import (
	"math"
	"slices"
	"sync"
	"syscall"
	"time"
)

// windowStats is what one measured window observed.
type windowStats struct {
	reads  int
	rows   int64
	bytes  int64
	allLat []float64   // untraced read latencies, ms
	first  []float64   // untraced time to first row, ms
	lat    [][]float64 // untraced read latencies by template, ms
	traced []float64   // traced read latencies, ms (trace runs)
	writes writerStats // the writer's (annotate-mixed) or the write probe's

	before, after scrape
	p0, p1        procSample
	clientCPU     time.Duration
	serverCPU     time.Duration
	dur           time.Duration // the whole window, start to the writer's end
	blocks        []block
}

// block is a stretch of the window holding whole mix units.
type block struct {
	dur         time.Duration
	reads, rows int
	writes      int
	cpu         time.Duration // server CPU
}

func (w *windowStats) blockMedian(f func(block) float64) float64 {
	var xs []float64
	for _, k := range w.blocks {
		xs = append(xs, f(k))
	}
	return median(xs)
}

// clientCPUShare is the client's share of the CPU both processes used in
// the window.
func (w *windowStats) clientCPUShare() float64 {
	total := w.clientCPU + w.serverCPU
	if total == 0 {
		return 0
	}
	return float64(w.clientCPU) / float64(total)
}

type writerStats struct {
	lat []float64 // due time -> acknowledged, ms
	lag []float64 // how late the generator sent, ms
	n   int
	err error
}

// openLoopWrites issues model writes to docName at writeRate from start
// until end (or n writes), each timed from its due time. Writes go one at a
// time on c's connection, so a slow write delays the ones due after it and
// their latency shows it. lag is the generator's own lateness: how long
// after a write could have been sent (due and the previous one done) it was.
func openLoopWrites(c *client, docName string, model *markModel, start, end time.Time, n int) writerStats {
	var ws writerStats
	period := time.Second / writeRate
	prevDone := start
	for k := 0; n <= 0 || k < n; k++ {
		due := start.Add(time.Duration(k) * period)
		if !end.IsZero() && !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			// A direct nanosleep wakes within microseconds; the runtime
			// timer can oversleep by up to a millisecond, which would time
			// the generator rather than the server.
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		w := model.next()
		sent := time.Now()
		if err := c.annotate(docName, w); err != nil {
			ws.err = err
			return ws
		}
		done := time.Now()
		model.ack()
		ws.lat = append(ws.lat, ms(done.Sub(due)))
		ws.lag = append(ws.lag, ms(sent.Sub(ready)))
		ws.n++
		prevDone = done
	}
	return ws
}

// window runs the measured closed-loop reads (and annotate-mixed's
// concurrent writer), then the checks and probes that follow them.
func (b *bench) window() (*windowStats, error) {
	w := &windowStats{lat: make([][]float64, len(b.templates))}
	srv := b.srv
	reader := newClient(srv.base)
	defer reader.close()
	var err error
	if w.before, err = reader.scrape(); err != nil {
		return nil, err
	}
	if w.p0, err = srv.sample(); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	start := time.Now()
	end := start.Add(time.Duration(b.opts.seconds) * time.Second)

	var wg sync.WaitGroup
	if b.model != nil {
		writer := newClient(srv.base)
		defer writer.close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.writes = openLoopWrites(writer, b.writeDoc, b.model, start, end, 0)
		}()
	}
	cur := block{}
	curStart, curCPU, curAcked := start, w.p0.cpu, 0
	for i := 0; time.Now().Before(end); i++ {
		if now := time.Now(); i%b.unit == 0 && now.Sub(curStart) >= blockMin {
			ps, err := srv.sample()
			if err != nil {
				return nil, err
			}
			acked := 0
			if b.model != nil {
				acked, _ = b.model.bounds()
			}
			cur.dur, cur.cpu, cur.writes = now.Sub(curStart), ps.cpu-curCPU, acked-curAcked
			w.blocks = append(w.blocks, cur)
			cur, curStart, curCPU, curAcked = block{}, now, ps.cpu, acked
		}
		r := b.reqs[i%len(b.reqs)]
		traced := b.opts.trace && i%2 == 1
		t0 := time.Now()
		rep, ok := b.read(reader, r)
		if !ok {
			continue
		}
		w.reads++
		cur.reads++
		cur.rows += rep.got.rows
		w.rows += int64(rep.got.rows)
		w.bytes += rep.bytes
		if traced {
			id := b.record(i, 0, "soxqd.http "+b.templates[r.tpl].name, t0, t0.Add(rep.latency))
			b.record(i, id, "first-row", t0, t0.Add(rep.firstRow))
			w.traced = append(w.traced, ms(rep.latency))
			continue
		}
		w.allLat = append(w.allLat, ms(rep.latency))
		w.first = append(w.first, ms(rep.firstRow))
		w.lat[r.tpl] = append(w.lat[r.tpl], ms(rep.latency))
	}
	wg.Wait()
	w.dur = time.Since(start)
	w.clientCPU = selfCPU() - cpu0
	if w.p1, err = srv.sample(); err != nil {
		return nil, err
	}
	w.serverCPU = w.p1.cpu - w.p0.cpu
	if w.after, err = reader.scrape(); err != nil {
		return nil, err
	}
	b.attempted += w.writes.n
	if w.writes.err != nil {
		b.attempted++
		b.failed++
		b.fail("annotation write: %v", w.writes.err)
	}

	if b.model != nil {
		// The writer has stopped and every write is acknowledged: each
		// read must now match the final state exactly.
		n := len(b.model.writes)
		for tpl, r := range annotateRequests(newRand(b.opts.seed), len(b.templates)) {
			rep, err := reader.query(b.templates[tpl], r.query)
			b.attempted++
			if err != nil || !b.model.check(r, n, n, rep.got) {
				b.failed++
				b.fail("%s read after the writer stopped does not match the final state (err %v)", b.templates[tpl].name, err)
			}
		}
	} else {
		w.writes = b.probe
	}
	b.checkLayers(w)
	return w, nil
}

// checkLayers asserts each workload still exercises the layers it exists
// for, so a workload that silently stops doing its job fails loudly instead
// of reading as faster, and that the load generator did not set the pace.
func (b *bench) checkLayers(w *windowStats) {
	d := func(name string) float64 { return delta(w.before, w.after, name) }
	if r := d("healthz_rejected"); r != 0 {
		b.fail("%v queries refused by admission control (503)", r)
	}
	if w.reads == 0 {
		b.fail("no read completed in the window")
	}
	switch b.opts.workload {
	case "xmark-joins":
		if d("soxq_plan_cache_hits_total") == 0 || d("soxq_plan_cache_misses_total") == 0 {
			b.fail("xmark-joins must both hit (Q2, Q6, Q7) and miss (Q1) the plan cache")
		}
	case "corpus-stream":
		if d("soxq_result_cache_hits_total") == 0 {
			b.fail("corpus-stream had no result-cache hits")
		}
	case "annotate-mixed":
		if c := d("soxq_compactions_total"); c < 2 {
			b.fail("annotate-mixed had %v compactions in the window, want at least 2", c)
		}
		if d(`soxq_mutations_total{op="insert"}`) == 0 || d(`soxq_mutations_total{op="delete"}`) == 0 {
			b.fail("annotate-mixed applied no inserts or no deletes")
		}
		if d("soxq_result_cache_misses_total") == 0 {
			b.fail("annotate-mixed cached reads never re-executed")
		}
	}
	if lag := percentile(w.writes.lag, 0.9); lag > ms(maxGenLagP90) {
		b.fail("load generator ran late: gen.lag_p90_ms %.2f > %.0f; run invalid", lag, ms(maxGenLagP90))
	}
	if share := w.clientCPUShare(); share > maxClientCPU {
		b.fail("client used %.0f%% of the CPU; the generator starved the server, run invalid", 100*share)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the p-quantile of xs by linear interpolation between order
// statistics (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// stretchLen is the sample count of one stretch: enough for ten samples
// beyond the 90th percentile.
const stretchLen = 100

// stretchPercentile cuts time-ordered samples into consecutive stretches of
// stretchLen (the remainder joins the last one) and returns the median of
// the stretches' p-quantiles, so a transient slowdown of the machine moves
// one stretch rather than the whole figure.
func stretchPercentile(xs []float64, p float64) float64 {
	n := len(xs) / stretchLen
	if n < 2 {
		return percentile(xs, p)
	}
	qs := make([]float64, n)
	for i := range qs {
		hi := (i + 1) * stretchLen
		if i == n-1 {
			hi = len(xs)
		}
		qs[i] = percentile(xs[i*stretchLen:hi], p)
	}
	return median(qs)
}
