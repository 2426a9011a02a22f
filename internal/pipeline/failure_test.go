package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// sliceSource adapts an event slice to pipeline.BatchSource.
type sliceSource struct {
	evs []cpu.Event
}

func (s *sliceSource) NextBatch(dst []cpu.Event) (int, error) {
	if len(s.evs) == 0 {
		return 0, io.EOF
	}
	n := copy(dst, s.evs)
	s.evs = s.evs[n:]
	return n, nil
}

// drain runs src through a fresh pipeline.
func drain(src pipeline.BatchSource, opts pipeline.Options) (pipeline.Result, error) {
	return pipeline.New(opts).Drain(context.Background(), src)
}

// TestWorkerPanicReported drives far more events than the worker queues
// can hold through a pipeline whose observer panics early. The panic must
// not hang the dispatcher (the poisoned worker keeps draining) and must
// surface as an error from Drain and in Result.Err, not as a process crash.
func TestWorkerPanicReported(t *testing.T) {
	evs := syntheticStream(100_000, 1, 11) // one PID: every event hits the poisoned worker
	var n atomic.Uint64
	res, err := drain(&sliceSource{evs: evs}, pipeline.Options{
		Workers:    2,
		BatchSize:  64,
		QueueDepth: 2,
		Config:     testCfg,
		Observer: func(worker int, ev cpu.Event) {
			if n.Add(1) == 1000 {
				panic("injected failure")
			}
		},
	})
	if err == nil {
		t.Fatal("Drain returned nil error after a worker panic")
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "injected failure") ||
		!strings.Contains(res.Err.Error(), "panicked") {
		t.Fatalf("Result.Err = %v, want worker panic report", res.Err)
	}
	if res.Events != uint64(len(evs)) {
		t.Fatalf("dispatcher stopped early: %d of %d events dispatched", res.Events, len(evs))
	}
}

// TestWorkerPanicKeepsHealthyShards: a panic on one shard must not
// corrupt the results of the others.
func TestWorkerPanicKeepsHealthyShards(t *testing.T) {
	// PID 1 carries a working stream; PID 2 only exists to panic its
	// worker. With ≥ 2 workers the two PIDs may share a shard (hash), so
	// pick PIDs that land on different workers.
	const workers = 4
	evs := syntheticStream(20_000, 1, 12) // all PID 1
	poison := cpu.Event{Kind: cpu.EvLoad, PID: 2, Seq: 1, Range: mem.MakeRange(0, 4)}
	if pipeline.ShardOf(poison.PID, workers) == pipeline.ShardOf(1, workers) {
		t.Skip("PIDs 1 and 2 share a shard at this worker count")
	}
	seq, wantVerdicts := sequentialOracle(evs, testCfg)

	all := append([]cpu.Event{poison}, evs...)
	res, err := drain(&sliceSource{evs: all}, pipeline.Options{
		Workers: workers,
		Config:  testCfg,
		Observer: func(worker int, ev cpu.Event) {
			if ev.PID == 2 {
				panic("poison pill")
			}
		},
	})
	if err == nil || res.Err == nil {
		t.Fatal("expected the poisoned shard's panic to be reported")
	}
	// The healthy shard's results must be complete and correct.
	if res.Stats.SinkChecks != seq.SinkChecks || res.Stats.TaintOps != seq.TaintOps {
		t.Fatalf("healthy shard stats corrupted: got %+v, want %+v", res.Stats, seq)
	}
	if len(res.Verdicts) != len(wantVerdicts) {
		t.Fatalf("healthy shard verdicts lost: %d, want %d", len(res.Verdicts), len(wantVerdicts))
	}
}

// endlessSource produces events forever; only cancellation can stop a
// Drain over it.
type endlessSource struct {
	seq    uint64
	cancel func()
	after  uint64
}

func (s *endlessSource) NextBatch(dst []cpu.Event) (int, error) {
	for i := range dst {
		s.seq++
		if s.cancel != nil && s.seq == s.after {
			s.cancel()
		}
		dst[i] = cpu.Event{Kind: cpu.EvLoad, PID: 1, Seq: s.seq,
			Range: mem.MakeRange(mem.Addr(s.seq%4096), 4)}
	}
	return len(dst), nil
}

// TestRunContextCancellation: Drain must return promptly with the
// context's error once it is canceled, releasing all worker goroutines,
// even though the source never ends.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	src := &endlessSource{cancel: cancel, after: 50_000}
	done := make(chan error, 1)
	go func() {
		_, err := pipeline.New(pipeline.Options{Workers: 2, Config: testCfg}).Drain(ctx, src)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Drain error = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not honor cancellation")
	}
}

// TestRunContextPreCanceled: an already-canceled context stops the run
// before any event is consumed.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &endlessSource{}
	_, err := pipeline.New(pipeline.Options{Workers: 1, Config: testCfg}).Drain(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.seq != 0 {
		t.Fatalf("source consumed %d events under a dead context", src.seq)
	}
}

// TestMetricsConsistentUnderLoad runs the same stream through every entry
// point — Event, Drain and DrainTrace — under real backpressure (slow
// observer, tiny queues) and checks the dispatch metrics' invariants on
// each: the queue-depth gauge, sampled both from a free-running goroutine
// and from inside the workers, never goes negative, peaks above zero,
// stays within the rings' capacity, and is back to zero once drained; the
// high-water mark covers the sampled peak; and the batch counters and
// histograms agree with each other and with the event count. Run under
// -race this also proves the gauges are safe to scrape concurrently.
func TestMetricsConsistentUnderLoad(t *testing.T) {
	const workers, queueDepth, batch = 4, 2, 32
	evs := syntheticStream(60_000, 8, 13)
	var wire bytes.Buffer
	if _, err := (&trace.Recorder{Events: evs}).WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name string
		// producers bounds how many dispatchers feed the workers at once.
		producers int
		run       func(p *pipeline.Pipeline) (pipeline.Result, error)
	}{
		{"Event", 1, func(p *pipeline.Pipeline) (pipeline.Result, error) {
			for _, ev := range evs {
				p.Event(ev)
			}
			res := p.Close()
			return res, res.Err
		}},
		{"Drain", 1, func(p *pipeline.Pipeline) (pipeline.Result, error) {
			return p.Drain(context.Background(), &sliceSource{evs: evs})
		}},
		{"DrainTrace", workers, func(p *pipeline.Pipeline) (pipeline.Result, error) {
			return p.DrainTrace(context.Background(), bytes.NewReader(wire.Bytes()))
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			pm := pipeline.NewPipelineMetrics(reg)
			var negative atomic.Bool
			var workerPeak atomic.Int64
			sample := func() int64 {
				d := pm.QueueDepth.Value()
				if d < 0 {
					negative.Store(true)
				}
				return d
			}

			stop := make(chan struct{})
			sampled := make(chan int64, 1)
			go func() {
				var peak int64
				for {
					select {
					case <-stop:
						sampled <- peak
						return
					default:
					}
					peak = max(peak, sample())
				}
			}()

			p := pipeline.New(pipeline.Options{
				Workers:    workers,
				BatchSize:  batch,
				QueueDepth: queueDepth,
				Config:     testCfg,
				Metrics:    reg,
				Observer: func(worker int, ev cpu.Event) {
					// The batch under analysis is still counted, so the
					// gauge reads at least 1 from here.
					if d := sample(); d > workerPeak.Load() {
						workerPeak.Store(d) // racy max is fine: any sample > 0 will do
					}
					if ev.Seq%1024 == 0 {
						time.Sleep(50 * time.Microsecond) // force real backpressure
					}
				},
			})
			res, err := e.run(p)
			close(stop)
			peak := max(<-sampled, workerPeak.Load())
			if err != nil {
				t.Fatal(err)
			}

			if negative.Load() {
				t.Fatal("queue depth went negative")
			}
			if peak <= 0 {
				t.Fatalf("sampled queue depth peak %d, want > 0", peak)
			}
			// Every batch dispatched was fully analyzed: depth is back to zero.
			if d := pm.QueueDepth.Value(); d != 0 {
				t.Fatalf("queue depth after drain = %d, want 0", d)
			}
			// Each producer fills at most queueDepth slots per worker ring
			// and may be blocked handing off one more batch; each worker
			// holds one batch under analysis.
			if maxDepth := int64(e.producers*(workers*queueDepth+1) + workers); peak > maxDepth {
				t.Fatalf("sampled queue depth %d exceeds bound %d", peak, maxDepth)
			}
			if pm.QueueDepthHigh.Value() < peak {
				t.Fatalf("high-water %d below sampled peak %d", pm.QueueDepthHigh.Value(), peak)
			}
			if got := pm.EventsDispatched.Value(); got != uint64(len(evs)) {
				t.Fatalf("events dispatched = %d, want %d", got, len(evs))
			}
			if pm.BatchesDispatched.Value() == 0 {
				t.Fatal("no batches recorded")
			}
			if got := pm.BatchEvents.Count(); got != pm.BatchesDispatched.Value() {
				t.Fatalf("batch histogram count %d != batches dispatched %d",
					got, pm.BatchesDispatched.Value())
			}
			if got := uint64(pm.BatchEvents.Sum()); got != uint64(len(evs)) {
				t.Fatalf("batch histogram sum %d != events %d", got, len(evs))
			}
			if got, want := pm.BatchSeconds.Count(), pm.BatchesDispatched.Value(); got != want {
				t.Fatalf("batch latency observations %d != batches %d", got, want)
			}
			if pm.Stalls.Value() == 0 {
				t.Fatal("no backpressure stall recorded under a slow observer")
			}
			if res.Stats.Loads+res.Stats.Stores == 0 {
				t.Fatal("tracker metrics never saw the stream")
			}
		})
	}
}

// TestPipelineMetricsParity: instrumenting a pipeline must not change
// its merged result.
func TestPipelineMetricsParity(t *testing.T) {
	evs := syntheticStream(30_000, 5, 14)
	wantStats, wantVerdicts := sequentialOracle(evs, testCfg)

	reg := metrics.NewRegistry()
	p := pipeline.New(pipeline.Options{Workers: 4, Config: testCfg, Metrics: reg})
	for _, ev := range evs {
		p.Event(ev)
	}
	res := p.Close()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Counters must be exact; the watermarks are per-shard maxima on a
	// multi-process stream, so they may only be ≤ the sequential values.
	cmp := res.Stats
	cmp.MaxBytes, cmp.MaxRanges = wantStats.MaxBytes, wantStats.MaxRanges
	if cmp != wantStats {
		t.Fatalf("stats diverge under instrumentation:\n got %+v\nwant %+v", res.Stats, wantStats)
	}
	if res.Stats.MaxBytes > wantStats.MaxBytes || res.Stats.MaxRanges > wantStats.MaxRanges {
		t.Fatalf("watermarks %d/%d exceed sequential %d/%d",
			res.Stats.MaxBytes, res.Stats.MaxRanges, wantStats.MaxBytes, wantStats.MaxRanges)
	}
	if len(res.Verdicts) != len(wantVerdicts) {
		t.Fatalf("verdicts diverge: %d vs %d", len(res.Verdicts), len(wantVerdicts))
	}
	for i := range wantVerdicts {
		if res.Verdicts[i] != wantVerdicts[i] {
			t.Fatalf("verdict %d diverges", i)
		}
	}
	// The merge gauge was set and the sum of tracker metrics matches the
	// merged stats.
	pm := pipeline.NewPipelineMetrics(reg)
	if pm.MergeNanos.Value() <= 0 {
		t.Fatal("merge duration gauge not set")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["pift_tracker_taint_adds_total"]; got != wantStats.TaintOps {
		t.Fatalf("aggregated taint adds = %d, want %d", got, wantStats.TaintOps)
	}
	if got := snap.Counters["pift_tracker_sink_checks_total"]; got != wantStats.SinkChecks {
		t.Fatalf("aggregated sink checks = %d, want %d", got, wantStats.SinkChecks)
	}
}
