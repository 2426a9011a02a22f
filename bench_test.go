// Package pift's root benchmark harness: one testing.B benchmark per table
// and figure of the paper (regenerating the experiment end to end), plus
// micro-benchmarks of the components and the ablations called out in
// DESIGN.md (taint-store variants, untainting, PIFT-vs-DIFT work).
//
// Run with: go test -bench=. -benchmem
package pift

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dift"
	"repro/internal/eval"
	"repro/internal/malware"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/taint"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
	"repro/internal/tracestat"
)

// benchScale keeps the LGRoot workload small enough for -bench runs while
// preserving the trace shape.
const benchScale = 4

// --- One benchmark per paper table/figure ---

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	h := eval.NewHarness(benchScale)
	if _, err := h.LGRootTrace(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure2(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	h := eval.NewHarness(benchScale)
	for i := 0; i < b.N; i++ {
		if r := eval.Figure10(h, 30); len(r.Apps) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	h := eval.NewHarness(benchScale)
	if _, err := eval.Figure11(h); err != nil { // warm the trace cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure11(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	h := eval.NewHarness(benchScale)
	for i := 0; i < b.N; i++ {
		r, err := eval.Headline(h)
		if err != nil {
			b.Fatal(err)
		}
		if r.FalsePositives != 0 || r.FalseNegatives != 1 {
			b.Fatalf("accuracy drifted: FP=%d FN=%d", r.FalsePositives, r.FalseNegatives)
		}
	}
}

func BenchmarkFigures12And13(b *testing.B) {
	h := eval.NewHarness(benchScale)
	rec, err := h.LGRootTrace()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := tracestat.NewCollector()
		rec.Replay(c)
		c.Finish()
	}
}

func BenchmarkFigure14(b *testing.B) {
	h := eval.NewHarness(benchScale)
	if _, err := h.LGRootTrace(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure14(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigures15And16(b *testing.B) {
	h := eval.NewHarness(benchScale)
	if _, err := h.LGRootTrace(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.TimeSeries(h, 40); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure17(b *testing.B) {
	h := eval.NewHarness(benchScale)
	if _, err := h.LGRootTrace(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Figure17(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigures18And19(b *testing.B) {
	h := eval.NewHarness(benchScale)
	if _, err := h.LGRootTrace(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.UntaintEffect(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline sweeps the sharded asynchronous analyzer across
// worker counts on the multi-process Figure 10 workload (the full
// DroidBench corpus, one PID per app, interleaved round-robin). The
// events/sec metric is the scaling trajectory BENCH_*.json tracks.
func BenchmarkPipeline(b *testing.B) {
	h := eval.NewHarness(benchScale)
	wl, err := h.SuiteWorkload(64)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pipeline.New(pipeline.Options{Workers: n, Config: cfg})
				wl.Replay(p)
				res := p.Close()
				if res.Events != uint64(wl.Len()) {
					b.Fatalf("dispatched %d events, want %d", res.Events, wl.Len())
				}
			}
			b.ReportMetric(float64(wl.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// --- Component micro-benchmarks ---

// BenchmarkCPUExecution measures raw simulated-instruction throughput on
// the LGRoot workload.
func BenchmarkCPUExecution(b *testing.B) {
	prog := malware.LGRoot(benchScale)
	var instructions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := android.Run(prog, android.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		instructions = res.Instructions
	}
	b.ReportMetric(float64(instructions), "instrs/op")
}

// BenchmarkTrackerThroughput measures PIFT event-processing speed on a
// recorded trace — the hot loop of every sweep. Besides LGRoot it replays
// two 1M-event synthetic traces shaped like perfbench's workloads: bulk
// (long per-PID runs, where the last-PID caches hit) and interleave (a PID
// switch on every event, where they miss), in ns/event.
func BenchmarkTrackerThroughput(b *testing.B) {
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	b.Run("lgroot", func(b *testing.B) {
		rec := recordLGRoot(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Replay(core.NewTracker(cfg, nil))
		}
		b.ReportMetric(float64(rec.Len()), "events/op")
	})
	for _, w := range []struct {
		name string
		spec tracegen.Spec
	}{
		{"bulk", tracegen.Spec{Seed: 1, Events: 1 << 20, PIDs: 64, Quantum: 64}},
		{"interleave", tracegen.Spec{Seed: 1, Events: 1 << 20, PIDs: 512, Quantum: 1, SourceEvery: 512}},
	} {
		b.Run(w.name, func(b *testing.B) {
			rec := tracegen.Generate(w.spec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Replay(core.NewTracker(cfg, nil))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rec.Len()), "ns/event")
		})
	}
}

// BenchmarkPIFTvsDIFT compares the two trackers' live overhead on the same
// run, quantifying the "order of magnitude less frequent" claim.
func BenchmarkPIFTvsDIFT(b *testing.B) {
	prog := malware.LGRoot(1)
	b.Run("pift", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := core.NewTracker(core.Config{NI: 13, NT: 3, Untaint: true}, nil)
			if _, err := android.Run(prog, android.RunOptions{
				Sinks: []cpu.EventSink{tr},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dift", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := dift.New()
			if _, err := android.Run(prog, android.RunOptions{
				Sinks: []cpu.EventSink{tr},
				Hooks: []cpu.InstrHook{tr},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRangeSet measures the taint interval-set operations.
func BenchmarkRangeSet(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ops := make([]mem.Range, 4096)
	for i := range ops {
		ops[i] = mem.MakeRange(mem.Addr(rng.Intn(1<<20)), uint32(rng.Intn(64)+1))
	}
	b.Run("add", func(b *testing.B) {
		var s taint.RangeSet
		for i := 0; i < b.N; i++ {
			s.Add(ops[i%len(ops)])
		}
	})
	b.Run("query", func(b *testing.B) {
		var s taint.RangeSet
		for _, r := range ops[:512] {
			s.Add(r)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Overlaps(ops[i%len(ops)])
		}
	})
	b.Run("remove", func(b *testing.B) {
		var s taint.RangeSet
		for _, r := range ops {
			s.Add(r)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Remove(ops[i%len(ops)])
			if i%64 == 0 {
				s.Add(ops[(i*7)%len(ops)])
			}
		}
	})
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationTaintStores replays the LGRoot trace against the three
// taint-storage designs of §3.3: the unbounded ideal store, the bounded
// range cache (LRU and drop policies), and the fixed-granularity word
// store.
func BenchmarkAblationTaintStores(b *testing.B) {
	rec := recordLGRoot(b)
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	stores := []struct {
		name string
		mk   func() core.Store
	}{
		{"ideal", func() core.Store { return core.NewIdealStore() }},
		{"cache32K-lru", func() core.Store { return core.NewRangeCacheBytes(32*1024, core.EvictLRU) }},
		{"cache1K-lru", func() core.Store { return core.NewRangeCache(85, core.EvictLRU) }},
		{"cache1K-drop", func() core.Store { return core.NewRangeCache(85, core.EvictDrop) }},
		{"word4", func() core.Store { return core.NewWordStore(2) }},
		{"mondrian", func() core.Store { return core.NewMondrianStore() }},
	}
	for _, s := range stores {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := core.NewTracker(cfg, s.mk())
				rec.Replay(tr)
			}
		})
	}
}

// BenchmarkAblationUntainting compares tracker work with the untainting
// rule on and off.
func BenchmarkAblationUntainting(b *testing.B) {
	rec := recordLGRoot(b)
	for _, untaint := range []bool{true, false} {
		name := "untaint-on"
		if !untaint {
			name = "untaint-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := core.NewTracker(core.Config{NI: 13, NT: 3, Untaint: untaint}, nil)
				rec.Replay(tr)
			}
		})
	}
}

// BenchmarkAblationWindowSize shows tracker cost growth across NI.
func BenchmarkAblationWindowSize(b *testing.B) {
	rec := recordLGRoot(b)
	for _, ni := range []uint64{2, 5, 10, 15, 20} {
		b.Run(coreConfigName(ni), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := core.NewTracker(core.Config{NI: ni, NT: 3, Untaint: true}, nil)
				rec.Replay(tr)
			}
		})
	}
}

func coreConfigName(ni uint64) string {
	return core.Config{NI: ni, NT: 3, Untaint: true}.String()
}

var cachedLGRoot *trace.Recorder

func recordLGRoot(b *testing.B) *trace.Recorder {
	b.Helper()
	if cachedLGRoot == nil {
		rec, err := eval.Record(malware.LGRoot(benchScale))
		if err != nil {
			b.Fatal(err)
		}
		cachedLGRoot = rec
	}
	return cachedLGRoot
}
