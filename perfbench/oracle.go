package main

import (
	"fmt"
	"strconv"
	"time"

	"soxq"
)

// reqKey identifies a read by its template and query text.
type reqKey struct {
	tpl   int
	query string
}

// loadEngine builds the in-process engine over the same generated inputs the
// server receives, returning the document load and index build times.
func loadEngine(docs []doc, corpora []corpusDef) (eng *soxq.Engine, load, index time.Duration, err error) {
	eng = soxq.New()
	for _, d := range docs {
		t0 := time.Now()
		if err := eng.LoadXML(d.name, d.xml); err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		if err := eng.BuildIndex(d.name); err != nil {
			return nil, 0, 0, err
		}
		load += t1.Sub(t0)
		index += time.Since(t1)
	}
	for _, c := range corpora {
		if err := eng.CreateCorpus(c.name, c.members...); err != nil {
			return nil, 0, 0, err
		}
	}
	return eng, load, index, nil
}

// eachRow executes a read on the in-process engine the way soxqd's /query
// handler does (the result cache for cache=1, a streamed corpus fan-out for
// corpus reads, a streamed single-document query otherwise) and calls row
// with each result value; a nil row only drains. It returns the row count.
func eachRow(eng *soxq.Engine, t template, query string, row func(soxq.Value)) (int, error) {
	cfg := soxq.Config{StreamChunk: 1024}
	if t.cache {
		res, err := eng.QueryCorpus(query, t.corpus, cfg)
		if err != nil {
			return 0, err
		}
		for i := 0; row != nil && i < res.Len(); i++ {
			row(res.Value(i))
		}
		return res.Len(), nil
	}
	var cur *soxq.Cursor
	var err error
	if t.corpus != "" {
		cur, err = eng.StreamQueryCorpus(query, t.corpus, cfg)
	} else {
		cur, err = eng.StreamQuery(query, cfg)
	}
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	for cur.Next() {
		if row != nil {
			row(cur.Value())
		}
		n++
	}
	return n, cur.Err()
}

// runInProcess returns the answer of a read on the in-process engine.
func runInProcess(eng *soxq.Engine, t template, query string) (answer, error) {
	var rows []string
	if _, err := eachRow(eng, t, query, func(v soxq.Value) { rows = append(rows, v.XML()) }); err != nil {
		return answer{}, err
	}
	return digestRows(rows), nil
}

// staticOracle computes the answer of every distinct read of a read-only
// workload once, on the in-process engine.
func staticOracle(eng *soxq.Engine, templates []template, reqs []request) (map[reqKey]answer, error) {
	want := map[reqKey]answer{}
	for _, r := range reqs {
		k := reqKey{r.tpl, r.query}
		if _, ok := want[k]; ok {
			continue
		}
		a, err := runInProcess(eng, templates[r.tpl], r.query)
		if err != nil {
			return nil, fmt.Errorf("oracle for %s: %v", templates[r.tpl].name, err)
		}
		want[k] = a
	}
	return want, nil
}

// checkCorpusOracle cross-checks the engine's corpus answers against the
// generator's own knowledge of which hits lie inside their scene, so a bug
// shared by the server and the in-process engine cannot pass unseen.
func checkCorpusOracle(want map[reqKey]answer, m corpusModel) error {
	contained, straddling := 0, 0
	var perMember []string
	for i := range m.contained {
		contained += m.contained[i]
		straddling += m.straddling[i]
		perMember = append(perMember, strconv.Itoa(m.straddling[i]))
	}
	for tpl, q := range corpusQueries {
		got := want[reqKey{tpl, q}]
		switch tpl {
		case 0, 1, 2:
			if got.rows != contained {
				return fmt.Errorf("%s: engine returns %d rows, generator placed %d contained hits",
					corpusTemplates[tpl].name, got.rows, contained)
			}
		case 3:
			if got != digestRows(perMember) && got != digestRows([]string{strconv.Itoa(straddling)}) {
				return fmt.Errorf("reject-count: engine answer disagrees with the generator's %d straddling hits", straddling)
			}
		}
	}
	return nil
}
