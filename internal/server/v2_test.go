package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/cpu"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// postV2 sends events[start:end] as one PIFTTRC2 request.
func (s *testService) postV2(t *testing.T, id string, events []cpu.Event, start, end int) (server.IngestResponse, int) {
	t.Helper()
	body := eval.EncodeTraceFormat(events[start:end], trace.FormatV2)
	return s.postRaw(t, id, body, uint64(start))
}

// postReader sends body as-is with no Content-Length hint, so the
// request travels chunked.
func (s *testService) postReader(t *testing.T, id string, body io.Reader, offset uint64) (server.IngestResponse, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, s.base(id)+"/events", struct{ io.Reader }{body})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("PIFT-Offset", strconv.FormatUint(offset, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir server.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("POST %s: status %d: decode: %v", id, resp.StatusCode, err)
	}
	return ir, resp.StatusCode
}

// TestIngestParityV2 is the v2 basic contract: whole-stream and chunked
// uploads of PIFTTRC2 bodies produce verdicts identical to the v1 upload
// and to the one-shot inline replay — and the compressed stream crosses
// the wire in at most a quarter of the bytes, observable through
// pift_server_ingest_bytes_total.
func TestIngestParityV2(t *testing.T) {
	h := sharedHarness(t)
	s := newTestService(t, nil)
	events, err := h.TenantEvents(4)
	if err != nil {
		t.Fatal(err)
	}
	want := eval.OneShotVerdicts(events, testCfg)

	b0 := counterOf(s, "pift_server_ingest_bytes_total")
	if ir, code := s.post(t, "v2-base", events, 0, len(events)); code != http.StatusOK || ir.Acked != uint64(len(events)) {
		t.Fatalf("v1 upload: status %d %+v", code, ir)
	}
	v1Bytes := counterOf(s, "pift_server_ingest_bytes_total") - b0

	if ir, code := s.postV2(t, "v2-whole", events, 0, len(events)); code != http.StatusOK || ir.Acked != uint64(len(events)) {
		t.Fatalf("v2 upload: status %d %+v", code, ir)
	}
	v2Bytes := counterOf(s, "pift_server_ingest_bytes_total") - b0 - v1Bytes
	if v2Bytes == 0 || 4*v2Bytes > v1Bytes {
		t.Fatalf("v2 wire bytes %d vs v1 %d, want ≥4x reduction", v2Bytes, v1Bytes)
	}
	requireParity(t, s.verdicts(t, "v2-whole"), want, "v2-whole-stream")
	requireParity(t, s.verdicts(t, "v2-whole"), s.verdicts(t, "v2-base"), "v2-vs-v1")

	// Chunked resume: each chunk is its own self-contained v2 stream, the
	// offset travels in the header, and dedup of a re-sent chunk holds.
	third := len(events) / 3
	if ir, code := s.postV2(t, "v2-chunk", events, 0, third); code != http.StatusOK || ir.Acked != uint64(third) {
		t.Fatalf("chunk 1: status %d %+v", code, ir)
	}
	if ir, code := s.postV2(t, "v2-chunk", events, 0, third); code != http.StatusOK || ir.Ingested != 0 {
		t.Fatalf("duplicate chunk: status %d %+v", code, ir)
	}
	if ir, code := s.postV2(t, "v2-chunk", events, third/2, 2*third); code != http.StatusOK || ir.Acked != uint64(2*third) {
		t.Fatalf("overlap chunk: status %d %+v", code, ir)
	}
	if ir, code := s.postV2(t, "v2-chunk", events, 2*third, len(events)); code != http.StatusOK || ir.Acked != uint64(len(events)) {
		t.Fatalf("chunk 3: status %d %+v", code, ir)
	}
	requireParity(t, s.verdicts(t, "v2-chunk"), want, "v2-chunked")

	// A multi-block, multi-PID body, once with a declared length and once
	// chunked (no Content-Length): verdicts in arrival order, exact stats.
	big := tracegen.Generate(tracegen.Spec{Seed: 41, Events: 6*trace.DefaultBlockEvents + 500, PIDs: 8}).Events
	bigWant := eval.OneShotVerdicts(big, testCfg)
	full := eval.EncodeTraceFormat(big, trace.FormatV2)
	if ir, code := s.postRaw(t, "v2-sized", full, 0); code != http.StatusOK || ir.Acked != uint64(len(big)) {
		t.Fatalf("sized multi-block upload: status %d %+v", code, ir)
	}
	if ir, code := s.postReader(t, "v2-unsized", bytes.NewReader(full), 0); code != http.StatusOK || ir.Acked != uint64(len(big)) {
		t.Fatalf("chunked multi-block upload: status %d %+v", code, ir)
	}
	for _, id := range []string{"v2-sized", "v2-unsized"} {
		requireParity(t, s.verdicts(t, id), bigWant, id)
		requireStats(t, s, id, big)
	}
}

// TestDisconnectResumeV2 cuts a multi-block v2 upload mid-block: the ack
// must land on the last whole-block boundary before the cut — the torn
// block contributes nothing — and resending from the ack reproduces the
// uninterrupted result.
func TestDisconnectResumeV2(t *testing.T) {
	const n = 3*trace.DefaultBlockEvents + 300
	events := tracegen.Generate(tracegen.Spec{Seed: 31, Events: n, PIDs: 4}).Events
	s := newTestService(t, nil)
	full := eval.EncodeTraceFormat(events, trace.FormatV2)

	// Cut a few bytes into the third block's payload: two whole blocks
	// decode, the third refuses.
	idx, err := trace.LoadIndex(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Blocks() < 4 {
		t.Fatalf("trace has %d blocks, want ≥4", idx.Blocks())
	}
	cut := int(idx.Block(2).Offset) + 25
	wantAck := idx.Block(2).First

	ir, code := s.postRaw(t, "v2-torn", full[:cut], 0)
	if code != http.StatusBadRequest || ir.Error != "truncated" {
		t.Fatalf("torn v2 upload: status %d %+v", code, ir)
	}
	if ir.Acked != wantAck {
		t.Fatalf("torn v2 upload: acked %d, want block boundary %d", ir.Acked, wantAck)
	}
	ir2, code := s.postV2(t, "v2-torn", events, int(ir.Acked), len(events))
	if code != http.StatusOK || ir2.Acked != uint64(n) {
		t.Fatalf("resume: status %d %+v", code, ir2)
	}
	requireParity(t, s.verdicts(t, "v2-torn"), eval.OneShotVerdicts(events, testCfg), "v2-disconnect-resume")
}

// TestErrorTaxonomyV2 maps each v2 decode failure class onto its HTTP
// status — 400 for truncation and unknown magic, 413 for size-cap
// violations, 422 for corruption — and none of them onto a 5xx.
func TestErrorTaxonomyV2(t *testing.T) {
	const n = trace.DefaultBlockEvents + 100
	events := tracegen.Generate(tracegen.Spec{Seed: 37, Events: n, PIDs: 3}).Events
	s := newTestService(t, nil)
	full := eval.EncodeTraceFormat(events, trace.FormatV2)

	check := func(name string, body []byte, wantStatus int, wantCode string) {
		t.Helper()
		ir, code := s.postRaw(t, "v2-"+name, body, 0)
		if code >= 500 {
			t.Fatalf("%s: leaked a %d: %+v", name, code, ir)
		}
		if code != wantStatus || ir.Error != wantCode {
			t.Fatalf("%s: status %d error %q, want %d %q", name, code, ir.Error, wantStatus, wantCode)
		}
	}

	badMagic := append([]byte("PIFTTRC3"), full[8:]...)
	check("magic", badMagic, http.StatusBadRequest, "not-a-trace")

	tooMany := append([]byte(nil), full...)
	binary.LittleEndian.PutUint64(tooMany[8:], 1<<40)
	check("count", tooMany, http.StatusRequestEntityTooLarge, "too-large")

	// Block 0's clen field blown past the block-size cap.
	hugeBlock := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(hugeBlock[trace.HeaderSize+12:], 1<<23+1)
	check("block-size", hugeBlock, http.StatusRequestEntityTooLarge, "too-large")

	// One payload byte flipped: the CRC refuses the block.
	crc := append([]byte(nil), full...)
	crc[trace.HeaderSize+20+10] ^= 0x80
	check("crc", crc, http.StatusUnprocessableEntity, "corrupt-record")

	check("torn-header", full[:trace.HeaderSize+7], http.StatusBadRequest, "truncated")
	check("torn-payload", full[:len(full)-9], http.StatusBadRequest, "truncated")
}
