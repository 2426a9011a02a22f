package pipeline

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/metrics"
)

// Default tuning parameters. The batch size amortizes the ring hand-off
// across many events (one synchronization per ~256 events keeps dispatch
// cost well under the tracker's per-event work); the queue depth bounds
// how far a worker may fall behind before its producer blocks.
const (
	DefaultBatchSize  = 256
	DefaultQueueDepth = 8
)

// Options configures a Pipeline.
type Options struct {
	// Workers is the number of analysis goroutines; events are sharded
	// onto them by PID. Defaults to GOMAXPROCS.
	Workers int
	// BatchSize is how many events a producer accumulates per shard
	// before handing the batch to the worker. Defaults to
	// DefaultBatchSize.
	BatchSize int
	// QueueDepth is the capacity, in batches, of each producer→worker
	// ring. Once a worker's ring is full its producer blocks — explicit
	// backpressure, never drops. Defaults to DefaultQueueDepth.
	QueueDepth int
	// Config holds the tainting-window parameters every worker's tracker
	// runs with. Invalid configs panic in New, matching core.NewTracker.
	Config core.Config
	// Observer, when non-nil, is invoked on the worker goroutine for
	// every event just before the tracker consumes it. It exists for
	// tests and metrics; it must not call back into the pipeline.
	Observer func(worker int, ev cpu.Event)
	// Metrics, when non-nil, instruments the pipeline and every worker
	// tracker against this registry (see NewPipelineMetrics and
	// core.NewTrackerMetrics for the metric names). Nil runs
	// uninstrumented at zero cost beyond predicted branches.
	Metrics *metrics.Registry
	// MaxRestarts is the per-shard restart budget K: a worker that
	// panics restarts — skips the poisonous event and resumes the batch —
	// up to K times. The panic after that marks the shard failed: its
	// remaining batches are discarded (counted in the shard's fault
	// report) while every other shard completes normally, and the merged
	// Result comes back Degraded instead of the run hanging or losing
	// everything. 0 — the default — fails a shard on its first panic.
	MaxRestarts int
	// CheckpointEvery asks Drain/DrainTrace to quiesce the pipeline and
	// invoke OnCheckpoint every that many dispatched events (counted from
	// stream start, so a resumed run keeps the original cadence). 0
	// disables periodic checkpoints.
	CheckpointEvery uint64
	// OnCheckpoint receives the quiesced pipeline at each checkpoint
	// boundary; it typically calls WriteCheckpoint into durable storage.
	// An error aborts the run — a checkpoint that cannot be written must
	// not be silently skipped.
	OnCheckpoint func(p *Pipeline) error
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize < 1 {
		o.BatchSize = DefaultBatchSize
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.MaxRestarts < 0 {
		o.MaxRestarts = 0
	}
	return o
}
