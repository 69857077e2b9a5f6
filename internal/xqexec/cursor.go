// Package xqexec is the streaming execution subsystem: it turns a compiled
// plan into a pull-based pipeline of bounded-memory cursors instead of one
// fully materialised result sequence. The pipeline drives the same
// loop-lifted evaluator that the materialising path uses — a FLWOR's loop
// body is still evaluated for a whole chunk of tuples at once, so StandOff
// joins inside the loop keep their loop-lifted amortisation — but only one
// chunk of tuples and one chunk of results is live at a time. The bound
// compounds through nesting: an inner for clause over a streamable
// StandOff-free binding drives a child cursor per parent tuple (see
// flwor.go), and a StandOff select final path step streams per context
// chunk through a watermark-gated ordered dedup merge (see standoff.go).
// Expression forms that cannot stream (order by, aggregates, reject
// anti-joins, ...) fall back to a cursor wrapping the materialising
// evaluator, so every query works under either execution style and both
// return identical sequences.
//
// On top of the chunked pipeline, the FLWOR cursor can partition large loops
// across a worker pool (Config.Parallelism): chunks of tuples are evaluated
// concurrently over the shared immutable plan and merged back in order.
// Small loops — below the cardinality cutoff the gate observes on the
// binding stream — stay single-threaded, for the same reason the cost
// model keeps single-iteration joins on the Basic merge: parallel machinery
// only pays off once the work amortises it.
//
// The pipeline participates in EXPLAIN twice over. Describe reports the
// shape Build would construct — which operators pipeline and which
// materialise, and why — without executing anything. And when the driving
// evaluator carries an xqplan.ExecStats collector (Prepared.Analyze), the
// cursors record the streaming-path counters the materialising evaluator
// cannot see: chunks and tuples per FLWOR, and the per-context-node rows of
// a pipelined final path step.
package xqexec

import (
	"soxq/internal/xqast"
	"soxq/internal/xqeval"
)

// Cursor is a pull-based result stream. The usage contract mirrors
// database/sql.Rows: call Next until it returns false, read the current item
// with Item, then check Err; Close releases pipeline resources (worker
// goroutines) and is idempotent. A Cursor is single-consumer — it must not
// be shared between goroutines — but any number of cursors over the same
// plan may run concurrently.
type Cursor interface {
	// Next advances to the next item, returning false at the end of the
	// stream or on error (check Err).
	Next() bool
	// Item returns the current item; valid after a true Next.
	Item() xqeval.Item
	// Err returns the first error the pipeline hit, or nil.
	Err() error
	// Close tears the pipeline down. Safe to call more than once, and
	// safe to call before the stream is drained.
	Close()
}

// Config tunes the pipeline.
type Config struct {
	// ChunkSize is the number of loop tuples evaluated per pipeline chunk.
	// Larger chunks amortise the loop-lifted joins better; smaller chunks
	// bound memory tighter. <= 0 means unbounded: each operator
	// materialises fully, which is what Exec (a drain) wants.
	ChunkSize int
	// Parallelism is the number of worker goroutines large FLWOR loops are
	// partitioned across. <= 1 runs single-threaded.
	Parallelism int
}

// DefaultChunkSize is the chunk size Stream uses when the caller does not
// set one.
const DefaultChunkSize = 1024

// Build compiles the plan body into a cursor pipeline: globals are evaluated
// eagerly (so their errors surface here), then the top-level expression is
// matched against the pipelined operator forms, recursively for operators
// with streamable inputs. Anything else becomes a materialising cursor.
func Build(ev *xqeval.Evaluator, cfg Config) (Cursor, error) {
	// The pipeline owns a pooled join arena for its whole run (globals,
	// every chunk join); the wrapping cursor hands it back on Close.
	// Forked pool workers attach their own — see orderedPool.
	ev.AttachArena()
	// The seq arena recycles frames, bindings, and sequence buffers across
	// the pipeline's chunk scopes; workers fork without one and allocate
	// plainly, since their results outlive any scope the worker could close.
	ev.AttachSeqArena()
	root, err := ev.NewRootFrame()
	if err != nil {
		ev.DetachSeqArena()
		ev.DetachArena()
		return nil, err
	}
	x := &executor{ev: ev, cfg: cfg}
	return &pipelineCursor{Cursor: x.build(ev.Plan.Body(), root), ev: ev}, nil
}

// pipelineCursor wraps a pipeline's root cursor to scope the evaluator's
// join arena to the run: Close (always reached — DrainAll defers it, and
// soxq.Cursor.Close forwards) releases the arena and every buffer on loan
// from it back to the pool.
type pipelineCursor struct {
	Cursor
	ev *xqeval.Evaluator
}

func (c *pipelineCursor) Close() {
	c.Cursor.Close()
	c.ev.DetachArena()
	c.ev.DetachSeqArena()
}

// Unwrap exposes the wrapped root cursor (tests inspect its concrete type).
func (c *pipelineCursor) Unwrap() Cursor { return c.Cursor }

// takeAll forwards the materialising fast path through the wrapper so a
// non-streamable pipeline still hands its backing slice to DrainAll.
func (c *pipelineCursor) takeAll() ([]xqeval.Item, error) {
	if t, ok := c.Cursor.(interface{ takeAll() ([]xqeval.Item, error) }); ok {
		return t.takeAll()
	}
	var out []xqeval.Item
	for c.Cursor.Next() {
		out = append(out, c.Cursor.Item())
	}
	if err := c.Cursor.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// executor carries the build context shared by all cursors of one pipeline.
type executor struct {
	ev  *xqeval.Evaluator
	cfg Config
}

// chunkSize returns the effective tuples-per-chunk bound.
func (x *executor) chunkSize() int {
	if x.cfg.ChunkSize <= 0 {
		return int(^uint(0) >> 1) // unbounded: one chunk materialises all
	}
	return x.cfg.ChunkSize
}

// build constructs the cursor for one expression under a root-shaped frame
// (one iteration). It never evaluates anything: evaluation happens lazily on
// the first Next, except for globals which Build resolved already.
func (x *executor) build(e xqast.Expr, f *xqeval.Frame) Cursor {
	switch v := e.(type) {
	case *xqast.FLWOR:
		if streamableFLWOR(v) {
			return newFLWORCursor(x, v, f)
		}
	case *xqast.Path:
		return &pathCursor{x: x, p: v, f: f}
	case *xqast.Binary:
		switch v.Op {
		case ",":
			return &seqCursor{x: x, f: f, exprs: flattenSeq(v)}
		case "to":
			return newRangeCursor(x, v, f)
		}
	case *xqast.Enclosed:
		return x.build(v.X, f)
	}
	return &materialCursor{ev: x.ev, e: e, f: f}
}

// streamableFLWOR reports whether a FLWOR can run through the chunked tuple
// pipeline: at least one for clause to stream over, and no order by (a sort
// needs every tuple before the first result item).
func streamableFLWOR(v *xqast.FLWOR) bool {
	if len(v.OrderBy) > 0 {
		return false
	}
	for _, cl := range v.Clauses {
		if _, ok := cl.(*xqast.ForClause); ok {
			return true
		}
	}
	return false
}

// buildReuse rebuilds a reset level's binding cursor, reusing the shelved
// sibling's cursor in place when it was built for the same expression (the
// common shape: every parent tuple re-binds the same inner `1 to N` range).
func (x *executor) buildReuse(e xqast.Expr, f *xqeval.Frame, old Cursor) Cursor {
	if rc, ok := old.(*rangeCursor); ok {
		if v, ok2 := unwrapRange(e); ok2 && v == rc.v {
			rc.reset(f)
			return rc
		}
	}
	return x.build(e, f)
}

// unwrapRange peels Enclosed wrappers down to a `to` binary, if that is what
// the expression is.
func unwrapRange(e xqast.Expr) (*xqast.Binary, bool) {
	switch v := e.(type) {
	case *xqast.Binary:
		if v.Op == "to" {
			return v, true
		}
	case *xqast.Enclosed:
		return unwrapRange(v.X)
	}
	return nil, false
}

// flattenSeq collects the operands of a (left-leaning) `,` chain in order.
func flattenSeq(v *xqast.Binary) []xqast.Expr {
	if l, ok := v.L.(*xqast.Binary); ok && l.Op == "," {
		return append(flattenSeq(l), v.R)
	}
	return []xqast.Expr{v.L, v.R}
}

// DrainAll exhausts a cursor into a slice — the bridge Exec uses to stay a
// thin drain of Stream. Cursors that already hold their full result hand the
// backing slice over without a copy.
func DrainAll(c Cursor) ([]xqeval.Item, error) {
	defer c.Close()
	if t, ok := c.(interface{ takeAll() ([]xqeval.Item, error) }); ok {
		return t.takeAll()
	}
	var out []xqeval.Item
	for c.Next() {
		out = append(out, c.Item())
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// materialCursor is the fallback operator: it evaluates the whole expression
// with the materialising evaluator on first Next and streams the result. It
// is also what keeps the two execution styles semantically identical — any
// form the pipeline does not understand runs exactly as Exec always has.
type materialCursor struct {
	ev      *xqeval.Evaluator
	e       xqast.Expr
	f       *xqeval.Frame
	started bool
	items   []xqeval.Item
	i       int
	cur     xqeval.Item
	err     error
}

func (c *materialCursor) run() {
	c.started = true
	seq, err := c.ev.EvalExpr(c.e, c.f)
	if err != nil {
		c.err = err
		return
	}
	c.items = seq.Group(0)
}

func (c *materialCursor) Next() bool {
	if !c.started {
		c.run()
	}
	if c.err != nil || c.i >= len(c.items) {
		return false
	}
	c.cur = c.items[c.i]
	c.i++
	return true
}

func (c *materialCursor) Item() xqeval.Item { return c.cur }
func (c *materialCursor) Err() error        { return c.err }
func (c *materialCursor) Close()            { c.started, c.items, c.i = true, nil, 0 }

// takeAll lets DrainAll skip the item-by-item copy: the evaluated group is
// handed over directly, making Exec-through-the-pipeline identical in cost
// to the pre-streaming Exec for non-pipelined plans.
func (c *materialCursor) takeAll() ([]xqeval.Item, error) {
	if !c.started {
		c.run()
	}
	if c.err != nil {
		return nil, c.err
	}
	return c.items[c.i:], nil
}

// seqCursor streams a `,` sequence: each operand's cursor is built only when
// the previous operand is exhausted, so `(big-a, big-b)` holds one operand's
// pipeline at a time.
type seqCursor struct {
	x     *executor
	f     *xqeval.Frame
	exprs []xqast.Expr
	i     int
	cur   Cursor
	item  xqeval.Item
	err   error
}

func (c *seqCursor) Next() bool {
	for c.err == nil {
		if c.cur == nil {
			if c.i >= len(c.exprs) {
				return false
			}
			c.cur = c.x.build(c.exprs[c.i], c.f)
			c.i++
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

func (c *seqCursor) Item() xqeval.Item { return c.item }
func (c *seqCursor) Err() error        { return c.err }
func (c *seqCursor) Close() {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
	c.i = len(c.exprs)
}

// rangeCursor streams `lo to hi` without materialising the range — the
// canonical unbounded generator (a for-clause over a range binds tuples
// straight out of this cursor, so a million-iteration loop never holds a
// million binding items). Bounds are evaluated once on the first Next; the
// materialising evaluator's range-size limit applies identically.
type rangeCursor struct {
	x       *executor
	v       *xqast.Binary
	f       *xqeval.Frame
	started bool
	done    bool
	next    int64
	hi      int64
	cur     xqeval.Item
	// lit caches bounds recognised as integer literals at build time, so a
	// reset-reused cursor (`for $x in 1 to N` under a nested loop) re-arms
	// without re-evaluating — and thus without allocating — anything.
	lit          bool
	litLo, litHi int64
	err          error
}

// newRangeCursor builds a range cursor, pre-resolving literal bounds.
func newRangeCursor(x *executor, v *xqast.Binary, f *xqeval.Frame) *rangeCursor {
	c := &rangeCursor{x: x, v: v, f: f}
	if l, ok := v.L.(*xqast.IntLit); ok {
		if r, ok2 := v.R.(*xqast.IntLit); ok2 {
			c.lit, c.litLo, c.litHi = true, l.V, r.V
		}
	}
	return c
}

// reset re-arms the cursor under a fresh frame for reuse by buildReuse.
func (c *rangeCursor) reset(f *xqeval.Frame) {
	c.f = f
	c.started, c.done = false, false
	c.err = nil
}

func (c *rangeCursor) init() {
	c.started = true
	var lo, hi int64
	if c.lit {
		lo, hi = c.litLo, c.litHi
	} else {
		l, err := c.x.ev.EvalExpr(c.v.L, c.f)
		if err != nil {
			c.err = err
			return
		}
		r, err := c.x.ev.EvalExpr(c.v.R, c.f)
		if err != nil {
			c.err = err
			return
		}
		var loOK, hiOK bool
		lo, loOK, err = xqeval.SingletonInt(l.Group(0))
		if err != nil {
			c.err = err
			return
		}
		hi, hiOK, err = xqeval.SingletonInt(r.Group(0))
		if err != nil {
			c.err = err
			return
		}
		if !loOK || !hiOK {
			c.done = true
			return
		}
	}
	if lo > hi {
		c.done = true
		return
	}
	if hi-lo >= xqeval.RangeLimit {
		c.err = xqeval.ErrRangeTooLarge(lo, hi)
		return
	}
	c.next, c.hi = lo, hi
}

func (c *rangeCursor) Next() bool {
	if !c.started {
		c.init()
	}
	if c.err != nil || c.done {
		return false
	}
	c.cur = xqeval.Int(c.next)
	if c.next == c.hi {
		c.done = true
	} else {
		c.next++
	}
	return true
}

func (c *rangeCursor) Item() xqeval.Item { return c.cur }
func (c *rangeCursor) Err() error        { return c.err }
func (c *rangeCursor) Close()            { c.done = true }
