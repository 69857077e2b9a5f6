package xqexec

import (
	"soxq/internal/obs"
	"soxq/internal/xqeval"
)

// Cross-document merge: a corpus query fans out into one cursor pipeline per
// member document (a shard), and MergeShards drains them back into a single
// stream in shard order — the corpus's document order. Shards are
// independent by construction (each pipeline runs over its own evaluator and
// its own document snapshot), so the parallel form needs no cross-shard
// coordination beyond the order-preserving merge: each shard is one task of
// the orderedPool the parallel FLWOR loops run on, whose in-flight budget
// keeps started-but-unconsumed shards, and therefore buffered results,
// proportional to the worker count rather than the corpus size.

// ShardSource lazily constructs one shard's cursor. Sources are invoked at
// most once each, on the goroutine that will drain the cursor, so pipeline
// state with single-goroutine affinity (join arenas) stays correct.
type ShardSource func() (Cursor, error)

// MergeShards returns a cursor over the concatenation of the shard streams
// in slice order. With workers <= 1 (or a single shard) the shards run
// lazily one after another on the consumer's goroutine — bounded memory, no
// goroutines. With workers > 1 a bounded pool drains up to that many shards
// concurrently, buffering completed chunks of `chunk` items per shard while
// the merge catches up; the stream is item-for-item identical either way. A
// shard's error surfaces after every item of the shards before it, exactly
// where the sequential drain would have failed. Close mid-stream stops the
// pool and closes every open shard cursor; like every Cursor it is
// idempotent and leaks no goroutines.
func MergeShards(sources []ShardSource, workers, chunk int, met *obs.ExecMetrics) Cursor {
	if workers > len(sources) {
		workers = len(sources)
	}
	if workers <= 1 || len(sources) <= 1 {
		return &shardSeq{sources: sources}
	}
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return startOrderedPool(workers, nil, met, func(submit func(taskFunc) bool) {
		for _, src := range sources {
			if !submit(func(_ *xqeval.Evaluator, emit func([]xqeval.Item) bool) error {
				return drainShard(src, chunk, emit)
			}) {
				return
			}
		}
	})
}

// shardSeq drains shards one at a time, building each source only when the
// previous shard is exhausted (the seqCursor discipline, across documents).
type shardSeq struct {
	sources []ShardSource
	i       int
	cur     Cursor
	item    xqeval.Item
	err     error
}

func (c *shardSeq) Next() bool {
	for c.err == nil {
		if c.cur == nil {
			if c.i >= len(c.sources) {
				return false
			}
			c.cur, c.err = c.sources[c.i]()
			c.i++
			if c.err != nil {
				return false
			}
		}
		if c.cur.Next() {
			c.item = c.cur.Item()
			return true
		}
		c.err = c.cur.Err()
		c.cur.Close()
		c.cur = nil
	}
	return false
}

func (c *shardSeq) Item() xqeval.Item { return c.item }
func (c *shardSeq) Err() error        { return c.err }
func (c *shardSeq) Close() {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
	c.i = len(c.sources)
}

// drainShard is one shard's pool task: it builds the shard's cursor on the
// worker's goroutine and emits its output in slices of chunk items. The
// cursor is closed on every path, including a pool shutdown mid-shard.
func drainShard(src ShardSource, chunk int, emit func([]xqeval.Item) bool) error {
	cur, err := src()
	if err != nil {
		return err
	}
	defer cur.Close()
	buf := make([]xqeval.Item, 0, min(chunk, 64))
	for cur.Next() {
		buf = append(buf, cur.Item())
		if len(buf) >= chunk {
			if !emit(buf) {
				return nil
			}
			buf = make([]xqeval.Item, 0, chunk)
		}
	}
	if len(buf) > 0 && !emit(buf) {
		return nil
	}
	return cur.Err()
}
