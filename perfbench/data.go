package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"soxq/internal/xmark"
	"soxq/internal/xmlparse"
)

// doc is one generated document, PUT to the server under name.
type doc struct {
	name string
	xml  []byte
}

// corpusDef is one corpus definition, PUT to the server after the documents.
type corpusDef struct {
	name    string
	members []string
}

// template is one request shape of a workload's mix. Requests of a template
// share their query text except where the template varies a literal (Q1's
// person id, annotate-mixed's scene window).
type template struct {
	name   string
	weight float64 // share of the request mix
	format string  // "ndjson" or "xml"
	corpus string  // non-empty: a corpus query
	cache  bool    // cache=1: served from the engine's result cache
}

// request is one read the client sends: a template instance.
type request struct {
	tpl   int
	query string
	// person is Q1's person literal (xmark-joins).
	person int
	// window is the scene range [lo, hi) of an annotate-mixed window read.
	windowLo, windowHi int
}

// ---- xmark-joins ------------------------------------------------------

const (
	xmarkScale   = 0.2
	xmarkDoc     = "so.xml"
	xmarkPersons = 5100 // XMark persons at scale 0.2 (25500 × 0.2)
	q1Pool       = 600  // distinct Q1 literals: more than the 256-entry plan cache
)

var xmarkTemplates = []template{
	{name: "q1", weight: 0.25, format: "ndjson"},
	{name: "q2", weight: 0.25, format: "ndjson"},
	{name: "q6", weight: 0.25, format: "ndjson"},
	{name: "q7", weight: 0.25, format: "ndjson"},
}

// xmarkData generates the StandOff XMark document of the paper's Figure 6
// experiment at scale 0.2 (~13 MB), seeded.
func xmarkData(seed int64) ([]doc, error) {
	raw, err := xmark.GenerateBytes(xmark.Config{Scale: xmarkScale, Seed: uint64(seed)})
	if err != nil {
		return nil, err
	}
	plain, err := xmlparse.Parse("plain.xml", raw)
	if err != nil {
		return nil, err
	}
	cfg := xmark.DefaultStandOffConfig()
	cfg.Seed = uint64(seed)
	res, err := xmark.StandOffize(plain, cfg)
	if err != nil {
		return nil, err
	}
	return []doc{{name: xmarkDoc, xml: res.XML}}, nil
}

// q1Query is XMark Q1 in stand-off form with the person literal replaced.
func q1Query(person int) string {
	q := xmark.StandOffQuery(1, xmarkDoc)
	return strings.Replace(q, `"person0"`, strconv.Quote("person"+strconv.Itoa(person)), 1)
}

// xmarkRequests is a seeded shuffle of Q1, Q2, Q6 and Q7 in equal shares;
// Q1's person literal is drawn from a seeded pool of q1Pool persons.
func xmarkRequests(rng *rand.Rand, n int) []request {
	pool := rng.Perm(xmarkPersons)[:q1Pool]
	reqs := mixBlocks(rng, []int{0, 1, 2, 3}, n)
	for i := range reqs {
		switch reqs[i].tpl {
		case 0:
			reqs[i].person = pool[rng.Intn(len(pool))]
			reqs[i].query = q1Query(reqs[i].person)
		case 1:
			reqs[i].query = xmark.StandOffQuery(2, xmarkDoc)
		case 2:
			reqs[i].query = xmark.StandOffQuery(6, xmarkDoc)
		case 3:
			reqs[i].query = xmark.StandOffQuery(7, xmarkDoc)
		}
	}
	return reqs
}

// mixBlocks lays out n requests as consecutive blocks, each a seeded
// shuffle of unit (one request per template entry), so every block — and
// so every prefix a run gets through — holds the workload's exact mix.
func mixBlocks(rng *rand.Rand, unit []int, n int) []request {
	reqs := make([]request, 0, n+len(unit))
	for len(reqs) < n {
		block := append([]int(nil), unit...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, tpl := range block {
			reqs = append(reqs, request{tpl: tpl})
		}
	}
	return reqs
}

// ---- corpus-stream ----------------------------------------------------

// The corpus-stream corpus has the BenchmarkServerThroughput shape: 8
// members × 250 scenes × 60 hits (122k regions). Hit positions are seeded;
// a few hits straddle a scene's end, so reject-narrow has rows too.
const (
	corpusName    = "bench"
	corpusMembers = 8
	corpusScenes  = 250
	corpusHits    = 60
	corpusSpan    = 1000 // positions per scene
)

var corpusTemplates = []template{
	{name: "ndjson", weight: 0.4, format: "ndjson", corpus: corpusName},
	{name: "xml", weight: 0.2, format: "xml", corpus: corpusName},
	{name: "prefix", weight: 0.2, format: "ndjson", corpus: corpusName},
	{name: "reject-count", weight: 0.1, format: "ndjson", corpus: corpusName},
	{name: "cached-count", weight: 0.1, format: "ndjson", corpus: corpusName, cache: true},
}

var corpusQueries = []string{
	`doc("bench")//scene/select-narrow::hit`,
	`doc("bench")//scene/select-narrow::hit`,
	`doc("bench")//scene/select-wide::scene/select-narrow::hit`,
	`count(doc("bench")//scene/reject-narrow::hit)`,
	`count(doc("bench")//scene/select-narrow::hit)`,
}

// corpusModel is what the generator knows of the corpus: per member, how
// many hits are contained in their scene (select-narrow rows) and how many
// are not (reject-narrow rows).
type corpusModel struct {
	contained, straddling [corpusMembers]int
}

func corpusData(rng *rand.Rand) ([]doc, corpusDef, corpusModel) {
	var docs []doc
	var model corpusModel
	def := corpusDef{name: corpusName}
	for m := 0; m < corpusMembers; m++ {
		var sb strings.Builder
		sb.WriteString("<doc>")
		starts := make([]int, corpusHits)
		for s := 0; s < corpusScenes; s++ {
			base := s * corpusSpan
			fmt.Fprintf(&sb, `<scene id="s%d" start="%d" end="%d"/>`, s, base, base+corpusSpan-1)
			for h := range starts {
				starts[h] = base + rng.Intn(corpusSpan)
			}
			slices.Sort(starts)
			for _, st := range starts {
				end := st + 1 + rng.Intn(8)
				if end <= base+corpusSpan-1 {
					model.contained[m]++
				} else {
					model.straddling[m]++
				}
				fmt.Fprintf(&sb, `<hit start="%d" end="%d"/>`, st, end)
			}
		}
		sb.WriteString("</doc>")
		name := fmt.Sprintf("doc%02d.xml", m)
		docs = append(docs, doc{name: name, xml: []byte(sb.String())})
		def.members = append(def.members, name)
	}
	return docs, def, model
}

// corpusRequests repeats shuffled blocks of ten reads in the 40/20/20/10/10
// mix of corpusTemplates.
var corpusMix = []int{0, 0, 0, 0, 1, 1, 2, 2, 3, 4}

func corpusRequests(rng *rand.Rand, n int) []request {
	reqs := mixBlocks(rng, corpusMix, n)
	for i := range reqs {
		reqs[i].query = corpusQueries[reqs[i].tpl]
	}
	return reqs
}

// ---- annotate-mixed ---------------------------------------------------

// The annotate-mixed document has the big.xml shape of
// BenchmarkMutateThenQuery: 2,000 scenes × 60 hits (122k regions), scene s
// covering [100s, 100s+99]. The writer adds "mark" annotations [p, p+2].
const (
	bigDoc       = "big.xml"
	bigCorpus    = "live"
	bigScenes    = 2000
	bigHits      = 60
	bigSpan      = 100
	windowScenes = 20
	markWidth    = 2
)

var annotateTemplates = []template{
	{name: "mark-count", weight: 1.0 / 3, format: "ndjson"},
	{name: "mark-window", weight: 1.0 / 3, format: "ndjson"},
	{name: "cached-count", weight: 1.0 / 3, format: "ndjson", corpus: bigCorpus, cache: true},
}

func bigData(rng *rand.Rand) []doc {
	var sb strings.Builder
	sb.WriteString("<doc>")
	starts := make([]int, bigHits)
	for s := 0; s < bigScenes; s++ {
		base := s * bigSpan
		fmt.Fprintf(&sb, `<scene id="s%d" start="%d" end="%d"/>`, s, base, base+bigSpan-1)
		for h := range starts {
			starts[h] = base + rng.Intn(bigSpan-1)
		}
		slices.Sort(starts)
		for _, st := range starts {
			fmt.Fprintf(&sb, `<hit start="%d" end="%d"/>`, st, st+1)
		}
	}
	sb.WriteString("</doc>")
	return []doc{{name: bigDoc, xml: []byte(sb.String())}}
}

func windowQuery(lo, hi int) string {
	return fmt.Sprintf(`doc("big.xml")//scene[@start >= %d and @start < %d]/select-narrow::mark`,
		lo*bigSpan, hi*bigSpan)
}

// annotateRequests cycles the three reads; each window read covers a seeded
// run of windowScenes scenes.
func annotateRequests(rng *rand.Rand, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		r := request{tpl: i % len(annotateTemplates)}
		switch r.tpl {
		case 0:
			r.query = `count(doc("big.xml")//scene/select-narrow::mark)`
		case 1:
			r.windowLo = rng.Intn(bigScenes - windowScenes + 1)
			r.windowHi = r.windowLo + windowScenes
			r.query = windowQuery(r.windowLo, r.windowHi)
		case 2:
			r.query = `count(doc("live")//scene/select-narrow::mark)`
		}
		reqs[i] = r
	}
	return reqs
}
