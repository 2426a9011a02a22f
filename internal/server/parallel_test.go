package server_test

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/cpu"
	"repro/internal/eval"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// parallelTenants is how many sessions each test below drives at once
// against one service. A session ingests its bodies in order on one
// route, so the server's parallelism lies across tenants; these tests
// pin that concurrent sessions keep the single-session contract exactly.
const parallelTenants = 4

// eachTenant runs body for parallelTenants sessions as parallel
// subtests; tenant i gets session id prefix-i.
func eachTenant(t *testing.T, prefix string, body func(t *testing.T, i int, id string)) {
	for i := 0; i < parallelTenants; i++ {
		i, id := i, fmt.Sprintf("%s-%d", prefix, i)
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			body(t, i, id)
		})
	}
}

// TestParallelIngestParity: concurrent whole-stream uploads each stay
// byte-identical to their one-shot replay — verdicts, ack offset, and
// the full stats, watermarks included.
func TestParallelIngestParity(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, nil)
	eachTenant(t, "par-alpha", func(t *testing.T, i int, id string) {
		events, err := h.TenantEvents(6 + i)
		if err != nil {
			t.Fatal(err)
		}
		ir, code := s.post(t, id, events, 0, len(events))
		if code != http.StatusOK || ir.Acked != uint64(len(events)) || ir.Ingested != uint64(len(events)) {
			t.Fatalf("status %d %+v, want acked %d", code, ir, len(events))
		}
		requireParity(t, s.verdicts(t, id), eval.OneShotVerdicts(events, testCfg), id)
		requireStats(t, s, id, events)
	})
}

// TestParallelChunkedResume: the resumable-offset protocol holds while
// other tenants ingest — chunk acks land on chunk ends, duplicates are
// no-ops, and each stitched stream matches its one-shot replay.
func TestParallelChunkedResume(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, nil)
	eachTenant(t, "par-chunk", func(t *testing.T, i int, id string) {
		events, err := h.TenantEvents(7 + i)
		if err != nil {
			t.Fatal(err)
		}
		const chunks = 5
		per := (len(events) + chunks - 1) / chunks
		for start := 0; start < len(events); start += per {
			end := start + per
			if end > len(events) {
				end = len(events)
			}
			ir, code := s.post(t, id, events, start, end)
			if code != http.StatusOK || ir.Acked != uint64(end) {
				t.Fatalf("chunk [%d,%d): status %d %+v", start, end, code, ir)
			}
		}
		if ir, code := s.post(t, id, events, 0, per); code != http.StatusOK || ir.Ingested != 0 {
			t.Fatalf("duplicate chunk: status %d %+v", code, ir)
		}
		requireParity(t, s.verdicts(t, id), eval.OneShotVerdicts(events, testCfg), id)
	})
}

// TestParallelTornBody: concurrent bodies cut mid-record each get 400
// "truncated" with a per-event ack, and resuming from the ack converges
// to the one-shot verdicts.
func TestParallelTornBody(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, nil)
	eachTenant(t, "par-torn", func(t *testing.T, i int, id string) {
		events, err := h.TenantEvents(8 + i)
		if err != nil {
			t.Fatal(err)
		}
		full := eval.EncodeTrace(events)
		k := len(events) / 2
		cut := trace.HeaderSize + k*trace.EventSize + trace.EventSize/2
		ir, code := s.postRaw(t, id, full[:cut], 0)
		if code != http.StatusBadRequest || ir.Error != "truncated" {
			t.Fatalf("torn upload: status %d %+v", code, ir)
		}
		if ir.Acked != uint64(k) {
			t.Fatalf("torn upload: acked %d, want %d", ir.Acked, k)
		}
		ir2, code := s.post(t, id, events, int(ir.Acked), len(events))
		if code != http.StatusOK || ir2.Acked != uint64(len(events)) {
			t.Fatalf("resume: status %d %+v", code, ir2)
		}
		requireParity(t, s.verdicts(t, id), eval.OneShotVerdicts(events, testCfg), id)
	})
}

// TestParallelIngestV2 drives concurrent multi-block, multi-PID PIFTTRC2
// uploads: a declared-length body ("spooled", the name of the route that
// once buffered such bodies), a torn declared-length body that acks at
// the last whole block and resumes ("spooled-torn"), and a chunked body
// with no Content-Length ("chunked-stream"). Every session ends with
// verdicts in arrival order and stats equal to the sequential replay.
func TestParallelIngestV2(t *testing.T) {
	const n = 6*trace.DefaultBlockEvents + 500
	streams := make([][]cpu.Event, parallelTenants)
	for i := range streams {
		streams[i] = tracegen.Generate(tracegen.Spec{Seed: 41 + int64(i), Events: n, PIDs: 8}).Events
	}
	run := func(t *testing.T, upload func(t *testing.T, s *testService, id string, events []cpu.Event)) {
		s := newTestService(t, nil)
		eachTenant(t, "v2-par", func(t *testing.T, i int, id string) {
			events := streams[i]
			upload(t, s, id, events)
			requireParity(t, s.verdicts(t, id), eval.OneShotVerdicts(events, testCfg), id)
			requireStats(t, s, id, events)
		})
	}

	t.Run("spooled", func(t *testing.T) {
		run(t, func(t *testing.T, s *testService, id string, events []cpu.Event) {
			if ir, code := s.postV2(t, id, events, 0, n); code != http.StatusOK || ir.Acked != uint64(n) {
				t.Fatalf("status %d %+v", code, ir)
			}
		})
	})

	t.Run("spooled-torn", func(t *testing.T) {
		run(t, func(t *testing.T, s *testService, id string, events []cpu.Event) {
			full := eval.EncodeTraceFormat(events, trace.FormatV2)
			idx, err := trace.LoadIndex(bytes.NewReader(full))
			if err != nil {
				t.Fatal(err)
			}
			cut := int(idx.Block(4).Offset) + 13
			ir, code := s.postRaw(t, id, full[:cut], 0)
			if code != http.StatusBadRequest || ir.Error != "truncated" {
				t.Fatalf("torn: status %d %+v", code, ir)
			}
			if ir.Acked != idx.Block(4).First {
				t.Fatalf("torn: acked %d, want block boundary %d", ir.Acked, idx.Block(4).First)
			}
			if ir2, code := s.postV2(t, id, events, int(ir.Acked), n); code != http.StatusOK || ir2.Acked != uint64(n) {
				t.Fatalf("resume: status %d %+v", code, ir2)
			}
		})
	})

	t.Run("chunked-stream", func(t *testing.T) {
		run(t, func(t *testing.T, s *testService, id string, events []cpu.Event) {
			full := eval.EncodeTraceFormat(events, trace.FormatV2)
			if ir, code := s.postReader(t, id, bytes.NewReader(full), 0); code != http.StatusOK || ir.Acked != uint64(n) {
				t.Fatalf("status %d %+v", code, ir)
			}
		})
	})
}
