// Package pipeline decouples front-end event production from taint
// analysis, reproducing in software the split the paper builds in
// hardware (§3): the application core streams load/store events to a
// separate analysis core that runs the PIFT heuristic asynchronously.
//
// Events are sharded by PID onto N worker goroutines, each running its
// own core.Tracker. Sharding by PID is semantics-preserving because the
// tainting-window algorithm and the taint store are both per-process
// (Algorithm 1 keeps one window per PID; Figure 6 tags every storage
// entry with the PID): events of different processes never read or write
// shared tracker state, so any per-PID-order-preserving parallel schedule
// computes exactly what the sequential tracker does.
//
// There is one engine. A producer — the goroutine calling Event, or one
// of DrainTrace's segment readers — owns a dispatcher: a pending batch
// per shard and one bounded single-producer/single-consumer ring per
// worker. Batching amortizes the hand-off, and the bound turns a slow
// worker into producer backpressure instead of unbounded buffering or
// event loss. Work reaches the workers in phases: a phase is an ordered
// list of producers, and each worker drains its ring from every producer
// in that order before marking the phase's barrier done. Close drains
// the workers and merges their statistics and sink verdicts into a
// deterministic Result.
package pipeline

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ring"
)

// Pipeline is an asynchronous sharded taint analyzer. It implements
// cpu.EventSink, so it can be attached to a live machine or fed a
// recorded trace exactly like a sequential tracker. The producer side
// (Event, Sync, Close, Drain, DrainTrace) must be driven by one goroutine
// at a time; the analysis runs concurrently behind it.
type Pipeline struct {
	opts    Options
	workers []*worker
	pool    sync.Pool // recycles batch slices: *[]cpu.Event
	// feed is Event's producer and feedDone its phase barrier; both are
	// nil until the first Event after New or Sync.
	feed     *dispatcher
	feedDone *sync.WaitGroup
	m        PipelineMetrics
	tm       core.TrackerMetrics
	events   uint64
	closed   bool
}

// New builds the pipeline and starts its worker goroutines. The result
// must be Closed to release them. Invalid configs panic, as in
// core.NewTracker: they are experiment bugs, not runtime conditions.
func New(opts Options) *Pipeline {
	opts = opts.withDefaults()
	if err := opts.Config.Validate(); err != nil {
		panic(err)
	}
	trackers := make([]*core.Tracker, opts.Workers)
	for i := range trackers {
		trackers[i] = core.NewTracker(opts.Config, nil)
	}
	return launch(opts, trackers)
}

// launch builds the pipeline around one tracker per shard — New and
// Restore differ only in where those come from — and starts the workers.
func launch(opts Options, trackers []*core.Tracker) *Pipeline {
	p := &Pipeline{opts: opts}
	if opts.Metrics != nil {
		// Registration is idempotent: every pipeline over this registry —
		// and every worker within it — shares one metric set, so counters
		// aggregate across shards and runs.
		p.m = NewPipelineMetrics(opts.Metrics)
		p.tm = core.NewTrackerMetrics(opts.Metrics)
	}
	p.pool.New = func() any {
		b := make([]cpu.Event, 0, opts.BatchSize)
		return &b
	}
	p.workers = make([]*worker, len(trackers))
	for i, tr := range trackers {
		tr.SetMetrics(p.tm)
		p.workers[i] = newWorker(i, tr, opts.MaxRestarts)
		go p.workers[i].run(opts.Observer, &p.pool, p.m)
	}
	return p
}

// Workers returns the worker count.
func (p *Pipeline) Workers() int { return len(p.workers) }

// shard maps a PID to a worker index. The multiply-xorshift mix (the
// murmur3 finalizer) spreads consecutive PIDs evenly regardless of the
// worker count; it is a pure function of the PID, so the assignment is
// deterministic across runs.
func shard(pid uint32, n int) int {
	x := pid
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return int(x % uint32(n))
}

// ShardOf reports which worker index a PID maps to at the given worker
// count — the shard layout is part of the pipeline's observable contract
// (per-worker metrics, failure isolation), so tests and operators can
// predict placement.
func ShardOf(pid uint32, workers int) int {
	if workers <= 1 {
		return 0
	}
	return shard(pid, workers)
}

// Event implements cpu.EventSink: hand the event to its PID's shard
// through the push phase, opening one if none is open. A full worker
// ring blocks here — that is the backpressure contract.
func (p *Pipeline) Event(ev cpu.Event) {
	if p.feed == nil {
		p.openFeed()
	}
	if w, full := p.feed.add(&ev); full {
		p.feed.flush(w)
	}
	p.events++
}

// push is Event for a run of events.
func (p *Pipeline) push(evs []cpu.Event) {
	if p.feed == nil {
		p.openFeed()
	}
	for i := range evs {
		if w, full := p.feed.add(&evs[i]); full {
			p.feed.flush(w)
		}
	}
	p.events += uint64(len(evs))
}

// openFeed opens a one-producer push phase. Close leaves feed nil, so
// every Event after Close comes through here.
func (p *Pipeline) openFeed() {
	if p.closed {
		panic("pipeline: Event after Close")
	}
	ds, done := p.open(1)
	p.feed, p.feedDone = ds[0], done
}

// Offset returns the number of events dispatched over the pipeline's
// lifetime, counted from the start of the stream — a restored pipeline
// continues the count from its checkpoint. It is the resume position to
// pair with trace.Reader.Skip.
func (p *Pipeline) Offset() uint64 { return p.events }

// Sync ends the push phase: it flushes every shard's partial batch and
// blocks on the phase barrier until all dispatched events have been
// analyzed. On return the worker trackers are quiescent — the barrier's
// Wait edge makes their state (and any fault bookkeeping) safely visible
// to the caller's goroutine — which is what makes a mid-stream checkpoint
// consistent. The pipeline stays usable; the next Event opens a new
// phase.
func (p *Pipeline) Sync() {
	if p.closed {
		panic("pipeline: Sync after Close")
	}
	if done := p.endFeed(); done != nil {
		done.Wait()
	}
}

// endFeed closes the push phase's producer, if one is open, and returns
// the phase barrier (nil if none was open).
func (p *Pipeline) endFeed() *sync.WaitGroup {
	done := p.feedDone
	if p.feed != nil {
		p.feed.close()
	}
	p.feed, p.feedDone = nil, nil
	return done
}

// Close ends the push phase, shuts the workers down once they have
// drained every phase, and merges their outputs:
// counters sum, watermarks max (see core.Stats.Merge for the exactness
// argument), and sink verdicts sort into the canonical (PID, Seq, Tag)
// order, so the merged Result is a deterministic function of the input
// stream alone — independent of worker count, batch size, and
// scheduling. Shards that panicked are itemized in Result.Faults; a shard
// that exhausted its restart budget marks the Result Degraded and reports
// the first such fault in Result.Err, while the surviving shards' output
// is merged normally — a partial result with an explicit fault report,
// never a hang and never a silently incomplete success.
func (p *Pipeline) Close() Result {
	if p.closed {
		panic("pipeline: double Close")
	}
	start := time.Now()
	p.closed = true
	// Closing the queues first lets each worker exit straight after its
	// last phase instead of parking for one more; the queued phases still
	// drain, and done closing is the barrier.
	for _, w := range p.workers {
		w.q.Close()
	}
	p.endFeed()
	res := Result{Workers: len(p.workers), Events: p.events}
	for _, w := range p.workers {
		<-w.done
		if f, faulted := w.fault(); faulted {
			res.Faults = append(res.Faults, f)
			if f.Failed {
				res.Degraded = true
				if res.Err == nil {
					res.Err = f.Err
				}
			}
		}
		res.Stats.Merge(w.tr.Stats())
		res.Verdicts = append(res.Verdicts, w.tr.Verdicts()...)
	}
	core.SortVerdicts(res.Verdicts)
	p.m.MergeNanos.Set(time.Since(start).Nanoseconds())
	return res
}

// open starts a phase fed by n producers, in stream order, and returns
// one dispatcher per producer plus the phase barrier. Each worker is
// handed its column of the producers' rings; it drains them strictly in
// producer order — ring i to exhaustion before ring i+1 — so when the
// producers cover contiguous stretches of the stream in order, every
// shard sees its PIDs' events in exactly their stream order. Callers end
// the previous phase and wait on its barrier before opening the next, so
// one slot in each worker's queue suffices.
func (p *Pipeline) open(n int) ([]*dispatcher, *sync.WaitGroup) {
	nw := len(p.workers)
	ds := make([]*dispatcher, n)
	for i := range ds {
		d := &dispatcher{p: p, size: p.opts.BatchSize, out: make([]*ring.Ring[[]cpu.Event], nw), pending: make([][]cpu.Event, nw)}
		for w := range d.out {
			d.out[w] = ring.New[[]cpu.Event](p.opts.QueueDepth)
			d.pending[w] = p.batch()
		}
		ds[i] = d
	}
	done := new(sync.WaitGroup)
	done.Add(nw)
	for w, wk := range p.workers {
		col := make([]*ring.Ring[[]cpu.Event], n)
		for i, d := range ds {
			col[i] = d.out[w]
		}
		if !wk.q.Push(phase{rings: col, done: done}) {
			panic("pipeline: phase opened on closed worker queue")
		}
	}
	return ds, done
}

// batch takes a fresh (or recycled) empty batch slice from the pool.
func (p *Pipeline) batch() []cpu.Event {
	return (*p.pool.Get().(*[]cpu.Event))[:0]
}

// dispatcher is one producer's hand-off to every worker within a phase:
// a batch under construction per shard and one SPSC ring per worker.
// Event drives one dispatcher per push phase; each DrainTrace segment
// reader drives its own. It is confined to its producer's goroutine.
type dispatcher struct {
	p       *Pipeline
	size    int                       // Options.BatchSize
	out     []*ring.Ring[[]cpu.Event] // indexed by worker
	pending [][]cpu.Event             // batch under construction, by worker
}

// add appends *ev to its PID's shard's pending batch and reports whether
// that batch is now full; the caller then flushes shard w. It is kept
// small enough to inline into the producers' per-event loops, and takes
// a pointer so the inlined body copies the event once, into the batch.
func (d *dispatcher) add(ev *cpu.Event) (w int, full bool) {
	if len(d.out) > 1 {
		w = shard(ev.PID, len(d.out))
	}
	b := append(d.pending[w], *ev)
	d.pending[w] = b
	return w, len(b) >= d.size
}

// flush hands shard w's pending batch to its worker's ring, accounting
// for dispatch and for backpressure: a full ring counts one stall before
// the blocking push.
func (d *dispatcher) flush(w int) {
	b := d.pending[w]
	if len(b) == 0 {
		return
	}
	m := &d.p.m
	m.EventsDispatched.Add(uint64(len(b)))
	m.BatchesDispatched.Inc()
	m.BatchEvents.Observe(float64(len(b)))
	// Depth counts batches handed off but not yet fully analyzed. The
	// increment precedes the push, so it happens-before the worker's
	// decrement and the gauge can never read negative.
	m.QueueDepth.Inc()
	m.QueueDepthHigh.TrackMax(m.QueueDepth.Value())
	if !d.out[w].TryPush(b) {
		m.Stalls.Inc()
		d.out[w].Push(b) // only this producer closes the ring
	}
	d.pending[w] = d.p.batch()
}

// close flushes every partial batch and closes the rings: a closed ring
// is the end-of-producer marker the draining worker keys on, so a
// producer must close on every exit path, error or not, or its phase
// never completes.
func (d *dispatcher) close() {
	for w, q := range d.out {
		d.flush(w)
		q.Close()
		b := d.pending[w][:0]
		d.p.pool.Put(&b)
	}
}
