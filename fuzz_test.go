package soxq

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

// This file is the differential fuzz harness of the streaming engine: a
// seeded generator of stand-off documents and small XQuery programs, with
// every generated query executed under the full execution matrix —
// materialising Exec, the Stream pipeline across chunk sizes and
// parallelism, and the forced Basic / Loop-Lifted join strategies — and
// every outcome compared byte-for-byte against the default Exec (errors
// must match exactly too). One uint64 seed determines the whole case, so
// the go-fuzz corpus is a list of seeds:
//
//	go test -fuzz=FuzzStreamEquivalence        # explore new seeds
//	go test -run TestStreamEquivalenceQuick    # 200 fixed seeds, tier-1
//
// The generator is deliberately adversarial for the streaming paths: region
// order is shuffled against document order (the permuted conversion the
// paper describes), layers overlap and nest, duplicate regions exist, and
// queries nest FLWORs over annotation layers — exactly the shapes where the
// chunked StandOff merge and the cursor-valued bindings must re-establish
// the bulk semantics. Engine variants agreeing with each other is not
// enough, so the plain StandOff path templates are also checked against a
// definitional oracle (fuzzOracle) computed from the generated elements.

// fuzzLayers are the annotation layers a generated document draws from.
var fuzzLayers = [3]string{"block", "span", "word"}

// fuzzElem is one generated child of the document element; start < 0 marks
// a note without a region.
type fuzzElem struct {
	name, id   string
	start, end int64
}

func (e fuzzElem) xml() string {
	if e.start < 0 {
		return fmt.Sprintf(`<%s id="%s"/>`, e.name, e.id)
	}
	return fmt.Sprintf(`<%s id="%s" start="%d" end="%d"/>`, e.name, e.id, e.start, e.end)
}

// fuzzDoc generates a stand-off document: each layer gets a random number
// of annotations with random (possibly overlapping, nested, or duplicate)
// regions, and the element order is shuffled so document order disagrees
// with region order. It returns the document text and its elements in
// document order.
func fuzzDoc(r *rand.Rand) (string, []fuzzElem) {
	span := int64(200 + r.Intn(800))
	var elems []fuzzElem
	id := 0
	for _, layer := range fuzzLayers {
		n := 1 + r.Intn(9)
		for i := 0; i < n; i++ {
			start := r.Int63n(span)
			length := 1 + r.Int63n(span/4)
			end := start + length
			if end > span {
				end = span
			}
			id++
			elems = append(elems, fuzzElem{layer, fmt.Sprintf("%s%d", layer[:1], id), start, end})
			// Occasionally annotate the same region twice — the merge's
			// cross-chunk dedup must still emit each node exactly once.
			if r.Intn(8) == 0 {
				id++
				elems = append(elems, fuzzElem{layer, fmt.Sprintf("%s%d", layer[:1], id), start, end})
			}
		}
	}
	// A few nodes without regions: never area-annotations, never matched.
	for i := 0; i < r.Intn(3); i++ {
		elems = append(elems, fuzzElem{"note", fmt.Sprintf("n%d", i), -1, -1})
	}
	r.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })
	var sb strings.Builder
	sb.WriteString("<corpus>")
	for _, e := range elems {
		sb.WriteString(e.xml())
	}
	sb.WriteString("</corpus>")
	return sb.String(), elems
}

// The query templates fuzzOracle knows: one StandOff step (optionally
// followed by /@id) and two chained StandOff steps.
var (
	fuzzStepRE  = regexp.MustCompile(`^doc\("f\.xml"\)//(\w+)/([\w-]+)::(\w+)(/@id)?$`)
	fuzzChainRE = regexp.MustCompile(`^doc\("f\.xml"\)//(\w+)/([\w-]+)::(\w+)/([\w-]+)::(\w+)$`)
)

// fuzzOracle is the definitional semantics of the StandOff path templates,
// computed from the generated elements alone: no index, no join kernel. It
// returns the expected Result.String, or false for any other query.
func fuzzOracle(elems []fuzzElem, q string) (string, bool) {
	var out []int
	attr := false
	if m := fuzzStepRE.FindStringSubmatch(q); m != nil {
		out = fuzzStep(elems, fuzzLayer(elems, m[1]), m[2], m[3])
		attr = m[4] != ""
	} else if m := fuzzChainRE.FindStringSubmatch(q); m != nil {
		out = fuzzStep(elems, fuzzStep(elems, fuzzLayer(elems, m[1]), m[2], m[3]), m[4], m[5])
	} else {
		return "", false
	}
	parts := make([]string, len(out))
	for k, i := range out {
		if attr {
			parts[k] = fmt.Sprintf(`id="%s"`, elems[i].id)
		} else {
			parts[k] = elems[i].xml()
		}
	}
	return strings.Join(parts, " "), true
}

// fuzzLayer returns the positions (document order) of the elements named
// name.
func fuzzLayer(elems []fuzzElem, name string) []int {
	var out []int
	for i, e := range elems {
		if e.name == name {
			out = append(out, i)
		}
	}
	return out
}

// fuzzStep applies one StandOff axis to the context positions ctx with the
// closed-interval predicates of section 3.1, context x against candidate c:
// narrow matches x.s <= c.s && c.e <= x.e, wide matches x.s <= c.e &&
// c.s <= x.e. A select step keeps the candidates some context node matches,
// a reject step the candidates no context node matches. The result is in
// document order without duplicates; an empty context yields nothing.
func fuzzStep(elems []fuzzElem, ctx []int, axis, name string) []int {
	if len(ctx) == 0 {
		return nil
	}
	narrow := strings.HasSuffix(axis, "-narrow")
	sel := strings.HasPrefix(axis, "select-")
	var out []int
	for i, c := range elems {
		if c.name != name || c.start < 0 {
			continue
		}
		match := false
		for _, j := range ctx {
			x := elems[j]
			if narrow && x.start <= c.start && c.end <= x.end ||
				!narrow && x.start <= c.end && c.start <= x.end {
				match = true
				break
			}
		}
		if match == sel {
			out = append(out, i)
		}
	}
	return out
}

// fuzzQueries generates a handful of query programs over the document's
// layers: bare StandOff paths (chunked final steps), filtered contexts,
// loops with StandOff bodies (loop-lifted joins), and nested FLWORs over
// annotation layers (cursor-valued bindings).
func fuzzQueries(r *rand.Rand) []string {
	axes := []string{"select-narrow", "select-wide", "reject-narrow", "reject-wide"}
	layer := func() string { return fuzzLayers[r.Intn(len(fuzzLayers))] }
	axis := func() string { return axes[r.Intn(len(axes))] }
	qs := []string{
		fmt.Sprintf(`doc("f.xml")//%s/%s::%s`, layer(), axis(), layer()),
		fmt.Sprintf(`doc("f.xml")//%s/%s::%s/@id`, layer(), axis(), layer()),
		fmt.Sprintf(`doc("f.xml")//%s[@start > %d]/%s::%s`, layer(), r.Intn(500), axis(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s return $a/%s::%s`, layer(), axis(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s for $b in $a/%s::%s return ($a/@id, $b/@id)`,
			layer(), axis(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s for $b in doc("f.xml")//%s
		 where $b/@start >= $a/@start return ($a/@id, $b/@id)`, layer(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s where count($a/%s::%s) > 1 return $a/@id`,
			layer(), axis(), layer()),
		fmt.Sprintf(`for $a at $p in doc("f.xml")//%s for $i in 1 to $p return ($p, $a/@start)`,
			layer()),
	}
	// Two chained StandOff steps: the first runs in the path prefix (bulk),
	// the second is the chunked final step.
	qs = append(qs, fmt.Sprintf(`doc("f.xml")//%s/%s::%s/%s::%s`,
		layer(), axis(), layer(), axis(), layer()))
	// A three-step chain with a reject forced into the prefix: rejects in
	// the bulk prefix exercise the anti-join's interaction with prefix
	// streaming, and the random final axis keeps the chunked step covered.
	qs = append(qs, fmt.Sprintf(`doc("f.xml")//%s/reject-%s::%s/%s::%s/%s::%s`,
		layer(), []string{"narrow", "wide"}[r.Intn(2)], layer(), axis(), layer(), axis(), layer()))
	return qs
}

// fuzzConfigs is the execution matrix every generated query must agree
// across; the zero Config (materialising Exec in auto mode) is the
// reference.
func fuzzConfigs() []Config {
	return []Config{
		{Mode: ModeBasic},
		{Mode: ModeLoopLifted},
		// The definitional nested-loop join, bulk and chunked.
		{Mode: ModeUDF},
		{Mode: ModeUDF, StreamChunk: 3},
		{NoPushdown: true},
		{StreamChunk: 1},
		{StreamChunk: 3},
		{StreamChunk: 16},
		{StreamChunk: 3, Parallelism: 2},
		// Oversubscribed pool: more workers than chunks in flight, so most
		// workers idle on the shared queue while results merge in order.
		{StreamChunk: 2, Parallelism: 8},
		// Forced modes through the chunked stream: adaptive chunk sizing and
		// per-chunk joins under a pinned algorithm.
		{Mode: ModeBasic, StreamChunk: 3},
		{Mode: ModeLoopLifted, StreamChunk: 5, Parallelism: 2},
		{NoPushdown: true, StreamChunk: 3, Parallelism: 2},
	}
}

// runFuzzCase executes one seed: generate the document and queries, then
// assert Exec ≡ Stream ≡ forced-Basic ≡ forced-LoopLifted for every query,
// and Exec ≡ fuzzOracle for the queries the oracle covers.
func runFuzzCase(t *testing.T, seed uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(seed)))
	doc, elems := fuzzDoc(r)
	eng := New()
	if err := eng.LoadXML("f.xml", []byte(doc)); err != nil {
		t.Fatalf("seed %d: generated document does not parse: %v\n%s", seed, err, doc)
	}
	for _, q := range fuzzQueries(r) {
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatalf("seed %d: generated query does not compile: %v\n%s", seed, err, q)
		}
		var want string
		res, refErr := prep.Exec(Config{})
		if refErr == nil {
			want = res.String()
		}
		if oracle, ok := fuzzOracle(elems, q); ok && (refErr != nil || want != oracle) {
			t.Fatalf("seed %d query %q: reference diverges from the definitional oracle:\nexec   %q (err %v)\noracle %q\ndoc: %s",
				seed, q, want, refErr, oracle, doc)
		}
		for _, cfg := range fuzzConfigs() {
			// Every config runs both execution styles.
			var gotExec string
			res, execErr := prep.Exec(cfg)
			if execErr == nil {
				gotExec = res.String()
			}
			var gotStream string
			cur, streamErr := prep.Stream(cfg)
			if streamErr == nil {
				gotStream, streamErr = drainStream(cur)
			}
			if fmt.Sprint(refErr) != fmt.Sprint(execErr) || fmt.Sprint(refErr) != fmt.Sprint(streamErr) {
				t.Fatalf("seed %d query %q cfg %+v: errors diverge: ref=%v exec=%v stream=%v",
					seed, q, cfg, refErr, execErr, streamErr)
			}
			if refErr != nil {
				continue
			}
			if gotExec != want {
				t.Fatalf("seed %d query %q cfg %+v:\nexec   %q\nwant   %q\ndoc: %s",
					seed, q, cfg, gotExec, want, doc)
			}
			if gotStream != want {
				t.Fatalf("seed %d query %q cfg %+v:\nstream %q\nwant   %q\ndoc: %s",
					seed, q, cfg, gotStream, want, doc)
			}
		}
		if refErr != nil {
			continue
		}
		// Analyze and re-run: an analyzed execution collects per-operator
		// counters on the shared plan's run, but results must never move.
		if res, _, err := prep.Analyze(Config{}); err != nil {
			t.Fatalf("seed %d query %q: analyze errored: %v", seed, q, err)
		} else if got := res.String(); got != want {
			t.Fatalf("seed %d query %q: analyze diverged: got=%q want=%q", seed, q, got, want)
		}
		if res, err := prep.Exec(Config{}); err != nil {
			t.Fatalf("seed %d query %q: exec after analyze errored: %v", seed, q, err)
		} else if got := res.String(); got != want {
			t.Fatalf("seed %d query %q: exec after analyze diverged: got=%q want=%q", seed, q, got, want)
		}
	}
}

// FuzzStreamEquivalence is the open-ended harness: `go test
// -fuzz=FuzzStreamEquivalence` mutates seeds beyond the checked-in corpus
// (testdata/fuzz/FuzzStreamEquivalence) looking for a divergence between
// the execution styles.
func FuzzStreamEquivalence(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1234, 99999, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runFuzzCase(t, seed)
	})
}

// TestStreamEquivalenceQuick is the deterministic tier-1 slice of the
// harness: 200 fixed seeds on every `go test` run.
func TestStreamEquivalenceQuick(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		runFuzzCase(t, seed)
	}
}
