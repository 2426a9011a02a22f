package eval

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/pipeline"
)

func TestSuiteWorkload(t *testing.T) {
	h := NewHarness(2)
	wl, err := h.SuiteWorkload(64)
	if err != nil {
		t.Fatal(err)
	}
	apps := h.Apps()
	total := 0
	for _, a := range apps {
		rec, err := h.AppTrace(a)
		if err != nil {
			t.Fatal(err)
		}
		total += rec.Len()
	}
	if wl.Len() != total {
		t.Fatalf("workload has %d events, suite traces total %d", wl.Len(), total)
	}
	pids := map[uint32]bool{}
	for _, ev := range wl.Events {
		pids[ev.PID] = true
	}
	if len(pids) != len(apps) {
		t.Fatalf("workload spans %d PIDs, want one per app (%d)", len(pids), len(apps))
	}
	// Caching: same quantum must return the identical recorder.
	again, err := h.SuiteWorkload(64)
	if err != nil {
		t.Fatal(err)
	}
	if again != wl {
		t.Fatal("SuiteWorkload did not cache")
	}
}

func TestPipelineParityAndRender(t *testing.T) {
	h := NewHarness(2)
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	rows, err := PipelineParity(h, cfg, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(h.Apps()) * 2; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("%s @ %d workers diverges from sequential tracker", r.App, r.Workers)
		}
	}
	out := RenderPipelineParity(rows, cfg)
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("render reports mismatch:\n%s", out)
	}
	if !strings.Contains(out, "byte-identical") {
		t.Errorf("render missing summary:\n%s", out)
	}
}

func TestPipelineScalingAndRender(t *testing.T) {
	h := NewHarness(2)
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	rows, err := PipelineScaling(h, cfg, []int{1, 2}, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Events <= 0 || r.PerSecond <= 0 || r.Elapsed <= 0 {
			t.Errorf("implausible scaling row %+v", r)
		}
	}
	if rows[0].Speedup != 1 {
		t.Errorf("baseline speedup %v, want 1", rows[0].Speedup)
	}
	out := RenderPipelineScaling(rows)
	if !strings.Contains(out, "events/sec") {
		t.Errorf("render missing header:\n%s", out)
	}
}

// TestScalingSweepRejectsDegradedRun: a run whose shard failed still
// accounts every event, so only its Result.Err tells the sweep not to
// quote a throughput row on it.
func TestScalingSweepRejectsDegradedRun(t *testing.T) {
	h := NewHarness(2)
	wl, err := h.SuiteWorkload(64)
	if err != nil {
		t.Fatal(err)
	}
	opts := pipeline.Options{
		Config: core.Config{NI: 13, NT: 3, Untaint: true},
		Observer: func(worker int, ev cpu.Event) {
			if ev.PID == 1 {
				panic("injected fault")
			}
		},
	}
	rows, err := scalingSweep(opts, []int{1}, wl.Len(), 1, replay(wl), nil)
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("sweep over a degraded run: rows %+v, err %v; want the shard's fault", rows, err)
	}
}

func TestDetectedPipelineAgreesWithDetected(t *testing.T) {
	h := NewHarness(2)
	cfg := core.Config{NI: 13, NT: 3, Untaint: true}
	for _, a := range h.Apps()[:8] {
		rec, err := h.AppTrace(a)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := DetectedPipeline(rec, cfg, 4), Detected(rec, cfg); got != want {
			t.Errorf("%s: pipeline detected=%v, sequential=%v", a.Name, got, want)
		}
	}
}
