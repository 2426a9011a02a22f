package eval

// This file holds the pipeline experiments: parity of the sharded
// asynchronous analyzer against the sequential oracle on the DroidBench
// suite, and its scaling on a multi-process workload — the software
// analogue of the paper's application-core/analysis-core split (§3).

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// SuiteWorkload builds the multi-process DroidBench workload: every app
// of the Figure 10/11 corpus re-tagged with a distinct PID and
// interleaved round-robin with the given context-switch quantum. This is
// the stream a phone's analysis core would see with the whole suite
// running concurrently, and the workload the pipeline scaling numbers are
// quoted on. The result is cached per quantum.
func (h *Harness) SuiteWorkload(quantum int) (*trace.Recorder, error) {
	if h.suiteWorkloads == nil {
		h.suiteWorkloads = make(map[int]*trace.Recorder)
	}
	if rec, ok := h.suiteWorkloads[quantum]; ok {
		return rec, nil
	}
	apps := h.Apps()
	streams := make([][]cpu.Event, 0, len(apps))
	for i, a := range apps {
		rec, err := h.AppTrace(a)
		if err != nil {
			return nil, err
		}
		pid := uint32(i + 1)
		evs := make([]cpu.Event, len(rec.Events))
		for j, ev := range rec.Events {
			ev.PID = pid
			evs[j] = ev
		}
		streams = append(streams, evs)
	}
	rec := &trace.Recorder{Events: trace.Interleave(quantum, streams...)}
	h.suiteWorkloads[quantum] = rec
	return rec, nil
}

// PipelineParityRow records one app × worker-count comparison between the
// pipeline and the sequential tracker.
type PipelineParityRow struct {
	App     string
	Workers int
	Match   bool
}

// PipelineParity replays every DroidBench trace through the sequential
// tracker and through the pipeline at each worker count, comparing merged
// stats and canonically ordered verdicts byte for byte.
func PipelineParity(h *Harness, cfg core.Config, workerCounts []int) ([]PipelineParityRow, error) {
	var rows []PipelineParityRow
	for _, app := range h.Apps() {
		rec, err := h.AppTrace(app)
		if err != nil {
			return nil, err
		}
		seq := core.NewTracker(cfg, nil)
		rec.Replay(seq)
		verdicts := append([]core.SinkVerdict(nil), seq.Verdicts()...)
		core.SortVerdicts(verdicts)
		want := fmt.Sprintf("%#v|%#v", seq.Stats(), verdicts)
		for _, n := range workerCounts {
			p := pipeline.New(pipeline.Options{Workers: n, Config: cfg})
			rec.Replay(p)
			res := p.Close()
			got := fmt.Sprintf("%#v|%#v", res.Stats, res.Verdicts)
			rows = append(rows, PipelineParityRow{App: app.Name, Workers: n, Match: got == want})
		}
	}
	return rows, nil
}

// RenderPipelineParity summarizes the parity sweep, listing any diverging
// combination explicitly.
func RenderPipelineParity(rows []PipelineParityRow, cfg core.Config) string {
	var b strings.Builder
	mismatches := 0
	for _, r := range rows {
		if !r.Match {
			mismatches++
			fmt.Fprintf(&b, "  MISMATCH: %s @ %d workers\n", r.App, r.Workers)
		}
	}
	head := fmt.Sprintf("Pipeline parity (%v): %d of %d app×worker runs byte-identical to the sequential tracker",
		cfg, len(rows)-mismatches, len(rows))
	if mismatches == 0 {
		return head
	}
	return head + "\n" + b.String()
}

// PipelineScalingRow is one point of the worker-count sweep.
type PipelineScalingRow struct {
	Workers   int
	Events    int
	Elapsed   time.Duration
	PerSecond float64
	Speedup   float64 // relative to the first row
}

// PipelineScaling times the pipeline over the multi-process suite
// workload at each worker count, replaying the in-memory recorder through
// Event. Repeats takes the best of k runs to damp scheduler noise; k < 1
// means 3.
func PipelineScaling(h *Harness, cfg core.Config, workerCounts []int, quantum, repeats int) ([]PipelineScalingRow, error) {
	wl, err := h.SuiteWorkload(quantum)
	if err != nil {
		return nil, err
	}
	return scalingSweep(pipeline.Options{Config: cfg}, workerCounts, wl.Len(), repeats, replay(wl), nil)
}

// replay drives a pipeline by replaying rec through Event.
func replay(rec *trace.Recorder) func(p *pipeline.Pipeline) (pipeline.Result, error) {
	return func(p *pipeline.Pipeline) (pipeline.Result, error) {
		rec.Replay(p)
		return p.Close(), nil
	}
}

// scalingSweep times one run of drive over a fresh pipeline (opts at n
// workers) per worker count, keeping the best of repeats runs (k < 1
// means 3), and returns one row per count with its speedup over the first
// row. The workload is events long. A run that errors, degrades, or
// accounts a different event count aborts the sweep, so a throughput row
// is never quoted on a bad run; check, when non-nil, vets each result
// further outside the timed region.
func scalingSweep(opts pipeline.Options, workerCounts []int, events, repeats int,
	drive func(p *pipeline.Pipeline) (pipeline.Result, error), check func(n int, res pipeline.Result) error) ([]PipelineScalingRow, error) {
	if repeats < 1 {
		repeats = 3
	}
	var rows []PipelineScalingRow
	for _, n := range workerCounts {
		best := time.Duration(0)
		for k := 0; k < repeats; k++ {
			opts.Workers = n
			p := pipeline.New(opts)
			start := time.Now()
			res, err := drive(p)
			elapsed := time.Since(start)
			if err == nil {
				err = res.Err
			}
			if err != nil {
				return nil, err
			}
			if res.Events != uint64(events) {
				return nil, fmt.Errorf("eval: %d-worker pipeline accounted %d of %d events", n, res.Events, events)
			}
			if check != nil {
				if err := check(n, res); err != nil {
					return nil, err
				}
			}
			if best == 0 || elapsed < best {
				best = elapsed
			}
		}
		row := PipelineScalingRow{
			Workers:   n,
			Events:    events,
			Elapsed:   best,
			PerSecond: float64(events) / best.Seconds(),
			Speedup:   1,
		}
		if len(rows) > 0 {
			row.Speedup = row.PerSecond / rows[0].PerSecond
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderPipelineScaling prints the suite scaling sweep as a table.
func RenderPipelineScaling(rows []PipelineScalingRow) string {
	return RenderScalingTable("Pipeline scaling (DroidBench suite, multi-process interleave)", rows)
}

// RenderScalingTable prints any scaling sweep under the given title.
func RenderScalingTable(title string, rows []PipelineScalingRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	b.WriteString("  workers   events      time    events/sec  speedup\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %7d  %7d  %8s  %12.0f  %6.2fx\n",
			r.Workers, r.Events, r.Elapsed.Round(time.Microsecond), r.PerSecond, r.Speedup)
	}
	return strings.TrimRight(b.String(), "\n")
}

// DetectedPipeline is Detected's pipeline twin: replays a trace through
// the sharded analyzer and reports whether any sink verdict found taint.
func DetectedPipeline(rec *trace.Recorder, cfg core.Config, workers int) bool {
	p := pipeline.New(pipeline.Options{Workers: workers, Config: cfg})
	rec.Replay(p)
	return p.Close().Detected()
}
