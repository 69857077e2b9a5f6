package xqexec

import (
	"sync"

	"soxq/internal/obs"
	"soxq/internal/xqeval"
)

// orderedPool runs tasks on a fixed set of workers and streams their output
// back in submission order: the one worker pool behind both parallel FLWOR
// loops (a task per chunk of binding tuples) and parallel corpus queries (a
// task per member-document shard).
//
// All workers take tasks from one shared queue, so an idle worker always
// takes the next task and a skewed task (one chunk whose loop body dominates,
// one huge shard) never idles the others. Each task gets its own result
// channel, and the channels are queued in submission order; the consumer
// drains them one after another, so the merged stream is item-for-item the
// sequential one and a task's error surfaces after every item of the tasks
// before it — exactly where the sequential run would have failed.
//
// The order queue's capacity is the in-flight budget: at most 2x workers
// tasks are submitted ahead of the consumer, so buffered results stay
// proportional to the worker count rather than to the loop or corpus size.
type orderedPool struct {
	tasks chan poolTask
	order chan chan poolChunk
	stop  chan struct{}
	wg    sync.WaitGroup // producer + workers
	met   *obs.ExecMetrics

	// Consumer state (single goroutine, never shared).
	res    chan poolChunk // result channel of the task being drained
	out    []xqeval.Item
	oi     int
	item   xqeval.Item
	err    error
	closed bool
}

// taskFunc is one unit of pool work. ev is the worker's own evaluator fork
// (nil when the pool was started without one); emit hands a slice of output
// to the consumer and returns false once the pool is shutting down, after
// which the task should return promptly.
type taskFunc func(ev *xqeval.Evaluator, emit func([]xqeval.Item) bool) error

type poolTask struct {
	run taskFunc
	res chan poolChunk
}

// poolChunk is one slice of a task's output, or its terminal error.
type poolChunk struct {
	items []xqeval.Item
	err   error
}

// startOrderedPool starts workers goroutines plus one producer goroutine
// running produce, which submits the tasks in stream order; submit returns
// false once the pool is shutting down. When ev is non-nil every worker runs
// its tasks over its own fork of it, with its own join arena (arenas are
// single-goroutine). The forks are taken here, on the caller's goroutine,
// before produce starts evaluating over ev.
func startOrderedPool(workers int, ev *xqeval.Evaluator, met *obs.ExecMetrics, produce func(submit func(taskFunc) bool)) *orderedPool {
	p := &orderedPool{
		tasks: make(chan poolTask),
		order: make(chan chan poolChunk, 2*workers),
		stop:  make(chan struct{}),
		met:   met,
	}
	p.wg.Add(workers + 1)
	for w := 0; w < workers; w++ {
		var wev *xqeval.Evaluator
		if ev != nil {
			wev = ev.Fork()
			wev.AttachArena()
		}
		go p.work(wev)
	}
	go func() {
		defer p.wg.Done()
		defer close(p.order)
		defer close(p.tasks)
		produce(p.submit)
	}()
	return p
}

// submit queues one task: its result channel joins the order queue first
// (waiting, and counting the stall, while the in-flight budget is spent),
// then the task goes to the first idle worker.
func (p *orderedPool) submit(run taskFunc) bool {
	// Capacity 1 lets a task's worker run one result ahead of the consumer.
	res := make(chan poolChunk, 1)
	select {
	case p.order <- res:
	default:
		p.met.InflightWait()
		select {
		case p.order <- res:
		case <-p.stop:
			return false
		}
	}
	select {
	case p.tasks <- poolTask{run: run, res: res}:
		return true
	case <-p.stop:
		return false
	}
}

func (p *orderedPool) work(ev *xqeval.Evaluator) {
	defer p.wg.Done()
	if ev != nil {
		defer ev.DetachArena()
	}
	for t := range p.tasks {
		p.run(ev, t)
	}
}

func (p *orderedPool) run(ev *xqeval.Evaluator, t poolTask) {
	defer close(t.res)
	send := func(c poolChunk) bool {
		select {
		case t.res <- c:
			return true
		case <-p.stop:
			return false
		}
	}
	if err := t.run(ev, func(items []xqeval.Item) bool { return send(poolChunk{items: items}) }); err != nil {
		send(poolChunk{err: err})
	}
}

func (p *orderedPool) Next() bool {
	for p.err == nil && !p.closed {
		if p.oi < len(p.out) {
			p.item = p.out[p.oi]
			p.oi++
			return true
		}
		if p.res == nil {
			res, ok := <-p.order
			if !ok {
				return false // every task submitted and drained
			}
			p.res = res
		}
		c, ok := <-p.res
		if !ok {
			p.res = nil
			continue
		}
		if c.err != nil {
			p.err = c.err
			return false
		}
		p.out, p.oi = c.items, 0
	}
	return false
}

func (p *orderedPool) Item() xqeval.Item { return p.item }
func (p *orderedPool) Err() error        { return p.err }

// Close shuts the pool down and returns only once the producer and every
// worker have exited: blocked sends give up on stop, a running task sees
// emit return false, and the producer closes the task queue behind it. No
// pool goroutine outlives the cursor, which matters to callers that release
// the evaluator's join arena right after Close.
func (p *orderedPool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.stop)
	p.wg.Wait()
	p.out, p.oi, p.res = nil, 0, nil
}
