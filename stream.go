package soxq

import (
	"io"

	"soxq/internal/tree"
	"soxq/internal/xqexec"
	"soxq/internal/xqplan"
)

// Cursor is a streamed query result: items are produced on demand through a
// bounded-memory pipeline instead of materialised into a Result, so a query
// whose result is millions of items holds only a chunk of them at a time.
// Iterate in the database/sql.Rows style:
//
//	cur, err := prep.Stream(soxq.Config{})
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//		fmt.Println(cur.Value().XML())
//	}
//	if err := cur.Err(); err != nil { ... }
//
// A Cursor is single-consumer; open one cursor per goroutine. Any number of
// cursors over the same Prepared may run concurrently.
type Cursor struct {
	cur xqexec.Cursor
	ro  runObs
}

// Next advances to the next result item, returning false at the end of the
// stream or on error (check Err afterwards).
func (c *Cursor) Next() bool {
	if c.cur.Next() {
		return true
	}
	// End of stream (or error): the drain is complete, so this — not the
	// eventual Close — is the end-to-end latency mark.
	c.ro.finish()
	return false
}

// Value returns the current item; it is valid after a Next that returned
// true.
func (c *Cursor) Value() Value { return Value{it: c.cur.Item()} }

// Err returns the first error the pipeline encountered, or nil.
func (c *Cursor) Err() error { return c.cur.Err() }

// Close releases the pipeline's resources (chunk buffers, parallel workers).
// It is idempotent and safe to call before the stream is drained; it returns
// the pipeline error, if any, so `defer cur.Close()` plus an Err check at
// the end covers every exit path.
func (c *Cursor) Close() error {
	c.cur.Close()
	c.ro.finish()
	return c.cur.Err()
}

// WriteXML serialises the remaining items of the stream to w — nodes as XML
// markup, atomic values as their string values, items separated by single
// spaces (the streamed equivalent of Result.String). Serialisation is itself
// a pipeline sink: items are appended to one buffer as they are produced,
// and the buffer goes to w whenever it holds writeXMLChunk bytes.
func (c *Cursor) WriteXML(w io.Writer) error {
	var buf []byte
	for first := true; c.Next(); first = false {
		if !first {
			buf = append(buf, ' ')
		}
		buf = c.Value().AppendXML(buf)
		if len(buf) >= writeXMLChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if err := c.Err(); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}

// writeXMLChunk is the buffered byte count at which WriteXML hands its
// buffer to the writer (bufio's default buffer size).
const writeXMLChunk = 4096

// Stream executes the compiled query as a pull-based cursor pipeline:
// FLWOR tuples are evaluated in bounded chunks (Config.StreamChunk), large
// loops optionally partition across Config.Parallelism workers, and
// expression forms that cannot stream fall back to materialised evaluation
// behind the same interface. The drained stream is always item-for-item
// identical to Exec's result. Like Exec, Stream is safe to call from any
// number of goroutines: each call builds an independent pipeline over the
// shared immutable plan.
func (p *Prepared) Stream(cfg Config) (*Cursor, error) {
	return p.stream("", cfg)
}

// StreamQuery is Stream through the plan cache: the query text is compiled
// (or served from the cache) and executed as a cursor pipeline in one call.
// It is the single-document streaming path of soxqd, where the query text
// arrives per request and repeats across requests.
func (e *Engine) StreamQuery(q string, cfg Config) (*Cursor, error) {
	p, err := e.preparedCached(q)
	if err != nil {
		return nil, err
	}
	return p.Stream(cfg)
}

// open builds the cursor pipeline of one run; every execution entry point
// goes through it. chunk <= 0 means unbounded chunks (materialise per
// operator), which is what a full drain wants. st attaches the per-operator
// collector of a traced or analysed run (nil otherwise).
//
// corpus "" runs the plan over the engine's documents (no corpus can carry
// the empty name). Otherwise the run fans out over the corpus members: one
// lazily built shard pipeline per member, drained through the
// cross-document merge. cfg.Parallelism then governs the shard pool (one
// worker drains one shard's pipeline at a time); shard-internal FLWOR
// partitioning stays off under the pool so a run's goroutine count is
// bounded by the shard workers, while a sequential run (Parallelism <= 1)
// keeps the single-document behaviour and hands cfg.Parallelism to each
// shard pipeline instead.
func (p *Prepared) open(corpus string, cfg Config, chunk int, st *xqplan.ExecStats) (xqexec.Cursor, error) {
	if corpus == "" {
		ev := p.evaluator(cfg, &runView{eng: p.eng, opts: p.plan.Options()}, st)
		return xqexec.Build(ev, xqexec.Config{ChunkSize: chunk, Parallelism: cfg.Parallelism})
	}
	shards, _, err := p.eng.corpusShards(corpus)
	if err != nil {
		return nil, err
	}
	p.eng.tel.corpusRun(len(shards))
	shardWorkers := cfg.Parallelism
	innerParallel := 0
	if shardWorkers <= 1 {
		innerParallel = cfg.Parallelism
	}
	sources := make([]xqexec.ShardSource, len(shards))
	for i, sh := range shards {
		sources[i] = func() (xqexec.Cursor, error) {
			// The run view is pre-seeded so both the corpus URI and the
			// member's own name resolve to the pinned member snapshot; any
			// other document reference falls through to the engine.
			rv := &runView{eng: p.eng, opts: p.plan.Options(),
				docs: map[string]*tree.Doc{corpus: sh.doc, sh.name: sh.doc}}
			return xqexec.Build(p.evaluator(cfg, rv, st), xqexec.Config{ChunkSize: chunk, Parallelism: innerParallel})
		}
	}
	return xqexec.MergeShards(sources, shardWorkers, chunk, p.eng.met()), nil
}

// drain is one materialising run (Exec, ExecCorpus, Analyze): the run's
// pipeline drained into a Result, with ro closed out at drain end.
func (p *Prepared) drain(ro runObs, corpus string, cfg Config, chunk int, st *xqplan.ExecStats) (*Result, error) {
	cur, err := p.open(corpus, cfg, chunk, st)
	if err != nil {
		return nil, err
	}
	items, err := xqexec.DrainAll(cur)
	ro.finish()
	if err != nil {
		return nil, err
	}
	return &Result{items: items}, nil
}

// stream is one cursor run (Stream, StreamCorpus), chunked by
// cfg.StreamChunk (xqexec.DefaultChunkSize when unset).
func (p *Prepared) stream(corpus string, cfg Config) (*Cursor, error) {
	chunk := cfg.StreamChunk
	if chunk <= 0 {
		chunk = xqexec.DefaultChunkSize
	}
	ro := p.beginRun(cfg, "stream")
	cur, err := p.open(corpus, cfg, chunk, ro.st)
	if err != nil {
		return nil, err
	}
	return &Cursor{cur: cur, ro: ro}, nil
}
