package eval

// Server ingest benchmark: a real server.Server behind a real HTTP
// listener ingests a serialized multi-process corpus as one session
// upload; the artifact it produces (BENCH_server.json) is what CI's
// server gate compares against the committed baseline.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// ServerBenchResult is the JSON artifact piftbench -exp server writes.
// It times end-to-end ingest through the HTTP boundary — body read,
// decode, tracker, ack — not just tracker math, so the gate certifies
// what a tenant actually experiences.
type ServerBenchResult struct {
	Config  core.Config `json:"config"`
	Events  int         `json:"events"`
	Repeats int         `json:"repeats"`
	// NumCPU records the measuring machine's parallelism.
	NumCPU int `json:"num_cpu"`
	// WireFormat is the trace format the corpus crossed the wire in.
	WireFormat string           `json:"wire_format,omitempty"`
	Elapsed    time.Duration    `json:"elapsed_ns"`   // best-of-repeats ingest wall time
	PerSecond  float64          `json:"events_per_s"` // Events / Elapsed
	Snapshot   metrics.Snapshot `json:"metrics"`
}

// ServerBench times whole-stream session ingest of one seeded
// multi-process corpus serialized in format f, best-of-repeats. Every
// run's verdicts are checked against the one-shot replay in arrival
// order, so a throughput number can never be quoted on a wrong answer.
func ServerBench(cfg core.Config, events, repeats int, f trace.Format) (*ServerBenchResult, error) {
	if repeats < 1 {
		repeats = 3
	}
	rec := tracegen.Generate(tracegen.Spec{Seed: 7, Events: events})
	var wire bytes.Buffer
	if _, err := rec.WriteToFormat(&wire, f); err != nil {
		return nil, err
	}
	raw := wire.Bytes()
	want := OneShotVerdicts(rec.Events, cfg)

	dir, err := os.MkdirTemp("", "pift-serverbench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg := metrics.NewRegistry()
	srv, err := server.New(server.Config{
		Tracker:      cfg,
		SpillDir:     dir,
		Registry:     reg,
		MemoryBudget: 1 << 40, // never spill mid-measurement
	})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	best := time.Duration(0)
	for k := 0; k < repeats; k++ {
		id := fmt.Sprintf("bench-r%d", k)
		elapsed, err := timedIngest(ts, id, raw, uint64(events))
		if err == nil {
			err = checkFinalize(ts, id, want)
		}
		if err != nil {
			return nil, fmt.Errorf("eval: server bench repeat %d: %w", k, err)
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return &ServerBenchResult{
		Config:     cfg,
		Events:     events,
		Repeats:    repeats,
		NumCPU:     runtime.NumCPU(),
		WireFormat: f.String(),
		Elapsed:    best,
		PerSecond:  float64(events) / best.Seconds(),
		Snapshot:   reg.Snapshot(),
	}, nil
}

// timedIngest posts the whole corpus as one session upload and returns
// the wall time of the request.
func timedIngest(ts *httptest.Server, id string, raw []byte, events uint64) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+id+"/events", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("PIFT-Offset", "0")
	start := time.Now()
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	var ir server.IngestResponse
	derr := json.NewDecoder(resp.Body).Decode(&ir)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if derr != nil || resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("ingest status %d (decode %v, error %q)", resp.StatusCode, derr, ir.Error)
	}
	if ir.Acked != events {
		return 0, fmt.Errorf("acked %d of %d events", ir.Acked, events)
	}
	return elapsed, nil
}

// checkFinalize DELETEs the session — freeing its tracker before the
// next repeat — and verifies the returned verdicts match the one-shot
// replay in arrival order.
func checkFinalize(ts *httptest.Server, id string, want []core.SinkVerdict) error {
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return err
	}
	var vr server.VerdictsResponse
	derr := json.NewDecoder(resp.Body).Decode(&vr)
	resp.Body.Close()
	if derr != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("finalize status %d (decode %v)", resp.StatusCode, derr)
	}
	got := make([]core.SinkVerdict, len(vr.Verdicts))
	for i, v := range vr.Verdicts {
		got[i] = core.SinkVerdict{Tag: v.Tag, PID: v.PID, Seq: v.Seq, Tainted: v.Tainted}
	}
	if !VerdictsEqual(got, want) {
		return fmt.Errorf("verdicts diverge from one-shot replay (%d vs %d)", len(got), len(want))
	}
	return nil
}

// WriteJSON serializes the artifact, indented for human diffing.
func (r *ServerBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
