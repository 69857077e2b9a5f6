package main

import (
	"bytes"
	"time"
)

// templateP50 names the per-template read latency metrics of each workload,
// in template order. Every run reports all of them, 0 for templates its
// workload does not send.
var templateP50 = map[string][]string{
	"xmark-joins":   {"xmark.q1_p50_ms", "xmark.q2_p50_ms", "xmark.q6_p50_ms", "xmark.q7_p50_ms"},
	"corpus-stream": {"corpus.ndjson_p50_ms", "corpus.xml_p50_ms"},
}

// layerMetrics computes the per-layer metrics of a traced run: counters
// scraped from the server around the window, the window's own figures, and
// the in-process layer ladder run after it.
func (b *bench) layerMetrics(w *windowStats, m map[string]metric) error {
	d := func(name string) float64 { return delta(w.before, w.after, name) }
	ratio := func(hit, miss string) float64 {
		h, mi := d(hit), d(miss)
		if h+mi == 0 {
			return 0
		}
		return h / (h + mi)
	}
	perReq := func(v float64) float64 { return v / float64(max(w.reads, 1)) }

	m["core.joins_basic"] = metric{perReq(d(`soxq_joins_total{algorithm="basic"}`)), "count/req"}
	m["core.joins_looplifted"] = metric{perReq(d(`soxq_joins_total{algorithm="looplifted"}`)), "count/req"}
	m["core.arena_hit_ratio"] = metric{ratio("soxq_arena_pool_hits_total", "soxq_arena_pool_misses_total"), "ratio"}
	m["core.compactions"] = metric{d("soxq_compactions_total"), "count"}
	m["resultcache.hit_ratio"] = metric{ratio("soxq_result_cache_hits_total", "soxq_result_cache_misses_total"), "ratio"}
	m["plancache.hit_ratio"] = metric{ratio("soxq_plan_cache_hits_total", "soxq_plan_cache_misses_total"), "ratio"}
	m["plancache.invalidations"] = metric{perReq(d(`soxq_plan_cache_evictions_total{reason="invalidation"}`)), "count/req"}
	m["soxqd.bytes_per_row"] = metric{float64(w.bytes) / float64(max(w.rows, 1)), "B"}
	m["soxqd.admission_rejected"] = metric{d("healthz_rejected"), "count"}
	m["query_p90_ms"] = metric{stretchPercentile(w.allLat, 0.9), "ms"}
	m["first_row_p50_ms"] = metric{stretchPercentile(w.first, 0.5), "ms"}
	m["write_p50_ms"] = metric{stretchPercentile(w.writes.lat, 0.5), "ms"}
	m["write_p90_ms"] = metric{stretchPercentile(w.writes.lat, 0.9), "ms"}
	m["gen.lag_p90_ms"] = metric{percentile(w.writes.lag, 0.9), "ms"}
	m["client_cpu_share"] = metric{w.clientCPUShare(), "ratio"}
	untraced := median(w.allLat)
	m["trace.overhead_pct"] = metric{100 * (median(w.traced) - untraced) / untraced, "%"}
	for _, names := range templateP50 {
		for _, name := range names {
			m[name] = metric{0, "ms"}
		}
	}
	for tpl, name := range templateP50[b.opts.workload] {
		m[name] = metric{median(w.lat[tpl]), "ms"}
	}

	// Document load and index build, in-process, median of three.
	loads, indexes := []float64{b.loadTime.Seconds()}, []float64{b.indexTime.Seconds()}
	for i := 0; i < 2; i++ {
		_, l, ix, err := loadEngine(b.docs, b.corpora)
		if err != nil {
			return err
		}
		loads, indexes = append(loads, l.Seconds()), append(indexes, ix.Seconds())
	}
	m["tree.load_s"] = metric{median(loads), "s"}
	m["core.index_build_s"] = metric{median(indexes), "s"}

	c := newClient(b.srv.base)
	defer c.close()
	compactMs, mergeMs := 0.0, 0.0
	joinXML := b.docs
	if b.model != nil {
		// Bring the in-process engine to the server's state; the join
		// rung runs over a document holding the same live marks.
		compact, plain, err := b.replayWrites()
		if err != nil {
			return err
		}
		if len(compact) > 0 {
			compactMs = median(compact) - median(plain)
		}
		joinXML = []doc{{name: bigDoc, xml: b.withMarks(b.docs[0].xml)}}
	}
	var joinDocs []indexedDoc
	for _, jd := range joinXML {
		id, err := indexDoc(jd.name, jd.xml)
		if err != nil {
			return err
		}
		joinDocs = append(joinDocs, id)
	}
	lad, err := b.runLadder(time.Duration(b.opts.seconds)*time.Second/2, joinDocs)
	if err != nil {
		return err
	}
	if b.model != nil {
		if mergeMs, err = b.deltaMerge(c); err != nil {
			return err
		}
	}
	m["core.compact_ms"] = metric{compactMs, "ms"}
	m["core.delta_merge_ms"] = metric{mergeMs, "ms"}

	r := func(tpl, rung int) float64 { return lad[tpl][rung] }
	self := func(rung int) float64 {
		return b.weighted(func(tpl int) float64 {
			if rung == rungJoin {
				return r(tpl, rungJoin)
			}
			return r(tpl, rung) - r(tpl, rung-1)
		})
	}
	m["core.join_ms"] = metric{self(rungJoin), "ms"}
	m["xqexec.drain_self_ms"] = metric{self(rungDrain), "ms"}
	m["soxq.materialize_self_ms"] = metric{self(rungValue), "ms"}
	m["tree.serialize_self_ms"] = metric{self(rungSerialize), "ms"}
	m["soxqd.http_self_ms"] = metric{self(rungHTTP), "ms"}
	total := b.weighted(func(tpl int) float64 { return r(tpl, rungHTTP) })
	m["tree.serialize_share"] = metric{self(rungSerialize) / total, "ratio"}

	// Compile of fresh query text, and ANALYZE's candidates per result row.
	prep := make([]float64, len(b.templates))
	var cand, rows []float64
	for tpl := range b.templates {
		var us []float64
		n := 0
		for _, rq := range b.reqs {
			if rq.tpl != tpl || n == 20 {
				continue
			}
			n++
			t0 := time.Now()
			if _, err := b.eng.Prepare(rq.query); err != nil {
				return err
			}
			us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
			if n == 1 {
				cd, rw, err := b.analyzeCounts(rq)
				if err != nil {
					return err
				}
				cand, rows = append(cand, float64(cd)), append(rows, float64(rw))
			}
		}
		prep[tpl] = median(us)
	}
	m["xqplan.prepare_us"] = metric{b.weighted(func(tpl int) float64 { return prep[tpl] }), "us"}
	m["core.candidates_per_row"] = metric{
		b.weighted(func(tpl int) float64 { return cand[tpl] }) /
			b.weighted(func(tpl int) float64 { return rows[tpl] }), "ratio"}

	writes, err := b.probeWritesInProcess(c)
	if err != nil {
		return err
	}
	m["soxq.write_us"] = metric{median(writes), "us"}
	m["error_rate"] = metric{float64(b.failed) / float64(max(b.attempted, 1)), "ratio"}
	return nil
}

// withMarks is the annotate-mixed document with the model's live marks
// appended in insertion order, as the server's snapshot holds them.
func (b *bench) withMarks(base []byte) []byte {
	var buf bytes.Buffer
	buf.Write(bytes.TrimSuffix(base, []byte("</doc>")))
	for _, mk := range b.model.marks {
		if mk.del < 0 {
			buf.WriteString(markXML(mk.start))
		}
	}
	buf.WriteString("</doc>")
	return buf.Bytes()
}
