package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"soxq"
)

const (
	// setupReps is how many fresh servers each run sets up; setup_s is
	// their median and the last one serves the measured window.
	setupReps = 7
	// requestCycle is the length of a workload's seeded request sequence, a
	// whole number of mix units; the closed-loop reader replays it from the
	// start if it runs out.
	requestCycle = 6000
	// blockMin is the shortest block: the window is cut into blocks of
	// whole mix units lasting at least this long, and rates and CPU per
	// request are the median over blocks.
	blockMin = time.Second
	// writeRate is the open-loop writer's rate, writes per second.
	writeRate = 400
	// probeWrites is the length of the write probe a traced run of a
	// read-only workload makes on a set-up server it then discards, so write
	// latency is measured on every workload without writes among the
	// window's reads.
	probeWrites = 200
	// Generator health limits: beyond them the client, not the server, set
	// the pace and the run is invalid rather than slow.
	maxGenLagP90 = 25 * time.Millisecond
	maxClientCPU = 0.75
)

// bench is one benchmark run.
type bench struct {
	opts options
	rng  *rand.Rand

	templates []template
	docs      []doc
	corpora   []corpusDef
	reqs      []request
	unit      int               // reads in one exact unit of the mix
	want      map[reqKey]answer // read-only workloads: answers by read
	model     *markModel        // annotate-mixed: the writer's model
	writeDoc  string            // document the writer or the write probe targets

	eng       *soxq.Engine // in-process engine: oracle, then ladder
	loadTime  time.Duration
	indexTime time.Duration

	mu  sync.Mutex
	srv *server

	probe             writerStats // read-only workloads: the write probes
	attempted, failed int
	problems          []string
	spans             []span
	epoch             time.Time
}

func (b *bench) stopServer() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.srv.stop()
	b.srv = nil
}

// fail records a failed check; the run then reports correct=false.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
	b.problems = append(b.problems, msg)
}

// prepare generates the workload's inputs and computes the oracle.
func (b *bench) prepare() error {
	switch b.opts.workload {
	case "xmark-joins":
		docs, err := xmarkData(b.opts.seed)
		if err != nil {
			return err
		}
		b.docs, b.templates, b.writeDoc = docs, xmarkTemplates, xmarkDoc
		b.reqs, b.unit = xmarkRequests(b.rng, requestCycle), len(xmarkTemplates)
	case "corpus-stream":
		docs, def, cm := corpusData(b.rng)
		b.docs, b.corpora, b.templates, b.writeDoc = docs, []corpusDef{def}, corpusTemplates, docs[0].name
		b.reqs, b.unit = corpusRequests(b.rng, requestCycle), len(corpusMix)
		defer func() {
			if b.want != nil {
				if err := checkCorpusOracle(b.want, cm); err != nil {
					b.fail("oracle: %v", err)
				}
			}
		}()
	case "annotate-mixed":
		b.docs, b.templates, b.writeDoc = bigData(b.rng), annotateTemplates, bigDoc
		b.corpora = []corpusDef{{name: bigCorpus, members: []string{bigDoc}}}
		b.reqs, b.unit = annotateRequests(b.rng, requestCycle), len(annotateTemplates)
		b.model = newMarkModel(newRand(b.opts.seed ^ 0x5eed))
	}
	if b.model != nil && !b.opts.trace {
		return nil // model-checked; no in-process engine needed
	}
	eng, load, index, err := loadEngine(b.docs, b.corpora)
	if err != nil {
		return err
	}
	b.eng, b.loadTime, b.indexTime = eng, load, index
	if b.model == nil {
		if b.want, err = staticOracle(eng, b.templates, b.reqs); err != nil {
			return err
		}
	}
	if !b.opts.trace {
		b.eng = nil // the oracle is computed; free the engine before measuring
		runtime.GC()
	}
	return nil
}

// check verifies one read's answer: against the oracle, or against the
// writer's model for prefixes of lo..hi writes.
func (b *bench) check(r request, lo, hi int, got answer) bool {
	if b.model != nil {
		return b.model.check(r, lo, hi, got)
	}
	return b.want[reqKey{r.tpl, r.query}] == got
}

// read sends one read and checks it, counting it as attempted and, when it
// fails or is wrong, as failed.
func (b *bench) read(c *client, r request) (reply, bool) {
	t := b.templates[r.tpl]
	lo := 0
	if b.model != nil {
		lo, _ = b.model.bounds()
	}
	rep, err := c.query(t, r.query)
	b.attempted++
	if err != nil {
		b.failed++
		b.fail("%s read: %v", t.name, err)
		return rep, false
	}
	hi := 0
	if b.model != nil {
		_, hi = b.model.bounds()
	}
	if !b.check(r, lo, hi, rep.got) {
		b.failed++
		b.fail("%s read returned a wrong result (%d rows): %.120s", t.name, rep.got.rows, r.query)
		return rep, false
	}
	return rep, true
}

// setupServer starts a fresh server, loads the inputs over HTTP and warms
// every template once (building the region indexes); the elapsed time is
// one setup_s sample.
func (b *bench) setupServer() (time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(b.opts.soxqd)
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	b.srv = srv
	b.mu.Unlock()
	c := newClient(srv.base)
	defer c.close()
	for _, d := range b.docs {
		if err := c.put("/documents/"+d.name, d.xml); err != nil {
			return 0, err
		}
	}
	for _, cd := range b.corpora {
		body, _ := json.Marshal(map[string][]string{"members": cd.members})
		if err := c.put("/corpora/"+cd.name, body); err != nil {
			return 0, err
		}
	}
	for tpl := range b.templates {
		for _, r := range b.reqs {
			if r.tpl == tpl {
				b.read(c, r)
				break
			}
		}
	}
	return time.Since(t0), nil
}

// writeProbe runs an open-loop probe of inserts at writeRate on the
// workload's document of a set-up server that will not serve the window.
func (b *bench) writeProbe() {
	c := newClient(b.srv.base)
	defer c.close()
	model := newMarkModel(newRand(b.opts.seed ^ 0x9e37))
	model.insertOnly = true
	ws := openLoopWrites(c, b.writeDoc, model, time.Now(), time.Time{}, probeWrites)
	b.probe.lat = append(b.probe.lat, ws.lat...)
	b.probe.lag = append(b.probe.lag, ws.lag...)
	b.attempted += ws.n
	if ws.err != nil {
		b.attempted++
		b.failed++
		b.fail("probe write: %v", ws.err)
	}
}

// span is one recorded interval of a traced run: a request, or one rung of
// the layer ladder. Spans of one request share its trace id.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (b *bench) record(trace, parent int, name string, start, end time.Time) int {
	id := len(b.spans) + 1
	b.spans = append(b.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(b.epoch).Nanoseconds(), End: end.Sub(b.epoch).Nanoseconds()})
	return id
}

// writeSpans writes the run's spans, one JSON object a line, under --out.
func (b *bench) writeSpans() error {
	if err := os.MkdirAll(b.opts.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.opts.out, fmt.Sprintf("spans-%s-%d.jsonl", b.opts.workload, b.opts.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range b.spans {
		enc.Encode(s)
	}
	return f.Close()
}

func (b *bench) run() (result, error) {
	b.epoch = time.Now()
	if err := b.prepare(); err != nil {
		return result{}, err
	}
	reps := setupReps
	if b.opts.trace {
		reps = 2
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		d, err := b.setupServer()
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		if i < reps-1 {
			if b.model == nil && b.opts.trace {
				b.writeProbe()
			}
			b.stopServer()
		}
	}
	w, err := b.window()
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	if b.opts.trace {
		if err := b.layerMetrics(w, res.Metrics); err != nil {
			return result{}, err
		}
		if err := b.writeSpans(); err != nil {
			return result{}, err
		}
	} else {
		b.endToEndMetrics(w, median(setups), res.Metrics)
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = len(b.problems) == 0
	return res, nil
}

func (b *bench) endToEndMetrics(w *windowStats, setup float64, m map[string]metric) {
	m["setup_s"] = metric{setup, "s"}
	m["server_peak_rss_mb"] = metric{float64(w.p1.peakKB) / 1024, "MB"}
	if b.model != nil {
		// The writer grows the document through the window, so reads slow
		// steadily: the median stretch or block would be a single second
		// of the run, exposed to whatever the host did then. Figures over
		// the whole window weigh every second alike.
		m["query_p50_ms"] = metric{median(w.allLat), "ms"}
		m["queries_per_s"] = metric{float64(w.reads) / w.dur.Seconds(), "1/s"}
		m["rows_per_s"] = metric{float64(w.rows) / w.dur.Seconds(), "1/s"}
		m["server_cpu_ms_per_request"] = metric{ms(w.serverCPU) / float64(max(w.reads+w.writes.n, 1)), "ms"}
		return
	}
	m["query_p50_ms"] = metric{stretchPercentile(w.allLat, 0.5), "ms"}
	m["queries_per_s"] = metric{w.blockMedian(func(k block) float64 { return float64(k.reads) / k.dur.Seconds() }), "1/s"}
	m["rows_per_s"] = metric{w.blockMedian(func(k block) float64 { return float64(k.rows) / k.dur.Seconds() }), "1/s"}
	m["server_cpu_ms_per_request"] = metric{w.blockMedian(func(k block) float64 {
		return ms(k.cpu) / float64(max(k.reads+k.writes, 1))
	}), "ms"}
}
