package pipeline

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ring"
)

// phase is a worker's share of one phase: its ring from each of the
// phase's producers, to be drained in producer (= stream) order, and the
// barrier the producer side waits on.
type phase struct {
	rings []*ring.Ring[[]cpu.Event]
	done  *sync.WaitGroup
}

// worker owns one shard: a queue of phases feeding a private tracker. All
// tracker state is confined to the worker goroutine between New and the
// done signal, so no locking is needed anywhere in the hot path. The
// fault-bookkeeping fields are likewise written only by the worker
// goroutine; the producer side reads them only after a quiesce point — a
// phase barrier's Wait, or <-done in Close — both of which establish the
// necessary happens-before edge.
type worker struct {
	idx  int
	q    *ring.Ring[phase]
	tr   *core.Tracker
	done chan struct{}

	// maxRestarts is the shard's panic budget K (Options.MaxRestarts).
	maxRestarts int
	// cursor tracks the index of the event currently being analyzed, so
	// a recovered panic knows exactly where to resume the batch.
	cursor int
	// panics counts panics recovered on this shard; the first maxRestarts
	// of them restart the shard, the next one fails it for good.
	panics int
	// failed marks the shard permanently poisoned: its tracker state is
	// suspect and all further batches are discarded (and counted).
	failed bool
	// firstErr records the first recovered panic, for the fault report.
	firstErr error
	// droppedEvents and droppedBatches count work this shard discarded —
	// skipped poisonous events plus everything thrown away after failure.
	droppedEvents  uint64
	droppedBatches uint64
}

func newWorker(idx int, tr *core.Tracker, maxRestarts int) *worker {
	return &worker{
		q:           ring.New[phase](1), // one phase open at a time (see open)
		idx:         idx,
		tr:          tr,
		done:        make(chan struct{}),
		maxRestarts: maxRestarts,
	}
}

// run drains phases until Close closes the queue. Within a phase every
// producer ring is drained to exhaustion, in producer order; a ring's Pop
// returning false is that producer's end marker. Spent batch slices go
// back to the shared pool. A failed worker keeps draining — discarding
// further batches — so a producer's bounded pushes can never hang on a
// dead consumer.
func (w *worker) run(obs func(int, cpu.Event), pool *sync.Pool, pm PipelineMetrics) {
	defer close(w.done)
	for {
		ph, ok := w.q.Pop()
		if !ok {
			return
		}
		for _, src := range ph.rings {
			for {
				batch, ok := src.Pop()
				if !ok {
					break
				}
				w.process(batch, obs, pm)
				pm.QueueDepth.Dec()
				b := batch[:0]
				pool.Put(&b)
			}
		}
		ph.done.Done()
	}
}

// process analyzes one batch under the restart policy: a panic out of the
// tracker (or an observer) is recovered, the poisonous event skipped, and
// the batch resumed — up to the shard's restart budget. The panic that
// exhausts the budget fails the shard: the rest of this batch and every
// later one are discarded and counted, never analyzed against the suspect
// tracker state.
func (w *worker) process(batch []cpu.Event, obs func(int, cpu.Event), pm PipelineMetrics) {
	if w.failed {
		w.droppedBatches++
		w.droppedEvents += uint64(len(batch))
		pm.DroppedEvents.Add(uint64(len(batch)))
		return
	}
	var start time.Time
	if pm.BatchSeconds != nil {
		start = time.Now()
	}
	for off := 0; off < len(batch); {
		n, ok := w.consume(batch[off:], obs)
		if ok {
			break
		}
		// batch[off+n] panicked. Spend one unit of restart budget to skip
		// it and resume, or fail the shard if the budget is gone.
		pm.WorkerPanics.Inc()
		w.panics++
		if w.panics > w.maxRestarts {
			w.failed = true
			dropped := uint64(len(batch) - off - n) // the poisonous event and everything after it
			w.droppedEvents += dropped
			pm.DroppedEvents.Add(dropped)
			pm.ShardFailures.Inc()
			return
		}
		pm.WorkerRestarts.Inc()
		w.droppedEvents++
		pm.DroppedEvents.Add(1)
		off += n + 1
	}
	if pm.BatchSeconds != nil {
		pm.BatchSeconds.Observe(time.Since(start).Seconds())
	}
}

// consume feeds events to the tracker until the slice is exhausted or a
// panic escapes the tracker/observer. It reports how many events were
// fully analyzed before the fault and whether the slice completed; on a
// fault, evs[n] is the event whose analysis panicked.
func (w *worker) consume(evs []cpu.Event, obs func(int, cpu.Event)) (n int, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if w.firstErr == nil {
				w.firstErr = fmt.Errorf("pipeline: worker %d panicked: %v", w.idx, r)
			}
			n, ok = w.cursor, false
		}
	}()
	for i, ev := range evs {
		w.cursor = i
		if obs != nil {
			obs(w.idx, ev)
		}
		w.tr.Event(ev)
	}
	return len(evs), true
}

// fault summarizes the shard's fault state for Result.Faults; zero-value
// when the shard never panicked.
func (w *worker) fault() (ShardFault, bool) {
	if w.panics == 0 {
		return ShardFault{}, false
	}
	restarts := w.panics
	if w.failed {
		restarts--
	}
	return ShardFault{
		Worker:         w.idx,
		Restarts:       restarts,
		Failed:         w.failed,
		DroppedEvents:  w.droppedEvents,
		DroppedBatches: w.droppedBatches,
		Err:            w.firstErr,
	}, true
}
