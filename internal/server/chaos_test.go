package server_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/eval"
	"repro/internal/server"
)

// The network half of the chaos CI matrix: the same seeded-fault
// discipline as internal/chaos's pipeline matrix, applied to the serving
// boundary. One (seed, mode) cell per CI job via these flags; with
// neither set, the full matrix runs as subtests.
var (
	netSeed = flag.Int64("chaos.seed", 0, "run only this seed of the network chaos matrix (0 = all)")
	netMode = flag.String("chaos.mode", "", "run only this fault mode: conn-cut, slow-loris ('' = all)")
)

var netSeeds = []int64{11, 23, 37, 41, 53, 67, 79, 97}
var netModes = []string{"conn-cut", "slow-loris"}

// TestServerChaosMatrix is the serving layer's resumed-equals-clean
// proof. conn-cut tears the client connection at a seeded byte offset on
// every attempt; the client re-reads the session's acknowledged offset
// and re-sends from there until the stream completes. slow-loris dribbles
// the body out in seeded tiny chunks. In both cases the session's final
// verdicts must be identical to a one-shot inline replay.
func TestServerChaosMatrix(t *testing.T) {
	seeds, modes := netSeeds, netModes
	if *netSeed != 0 {
		seeds = []int64{*netSeed}
	}
	if *netMode != "" {
		ok := false
		for _, m := range netModes {
			ok = ok || m == *netMode
		}
		if !ok {
			t.Fatalf("unknown -chaos.mode %q (have %v)", *netMode, netModes)
		}
		modes = []string{*netMode}
	}
	for _, mode := range modes {
		for _, seed := range seeds {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				runNetChaosCell(t, mode, seed)
			})
		}
	}
}

func runNetChaosCell(t *testing.T, mode string, seed int64) {
	h := sharedHarness(t)
	// A small budget keeps the spill machinery in play while the faults
	// fire: a session torn mid-stream may dehydrate before its retry.
	s := newTestService(t, func(c *server.Config) { c.MemoryBudget = 4 << 10 })
	in := chaos.New(seed)

	events, err := h.TenantEvents(int(seed))
	if err != nil {
		t.Fatal(err)
	}
	id := fmt.Sprintf("chaos-%s-%d", mode, seed)
	want := eval.OneShotVerdicts(events, testCfg)

	f := chaos.NoConnFaults()
	switch mode {
	case "conn-cut":
		// Below the body length, so the tear always fires (request headers
		// push the total connection bytes past the body), but past the
		// headers and stream header, so every attempt lands at least one
		// event first and the retry loop always makes progress.
		body := int64(len(eval.EncodeTrace(events)))
		f.CutAt = in.Between(512, body)
	case "slow-loris":
		f.MaxChunk = int(in.Between(16, 128))
		f.ChunkDelay = 100 * time.Microsecond
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	chaotic := &http.Client{
		Transport: &http.Transport{
			DialContext:       in.Dialer(f),
			DisableKeepAlives: true,
		},
		Timeout: 30 * time.Second,
	}

	cut := 0
	for attempt := 0; ; attempt++ {
		if attempt > 500 {
			t.Fatalf("no convergence after %d attempts (acked %d of %d)", attempt, ackedOffset(t, s, id), len(events))
		}
		acked := ackedOffset(t, s, id)
		if acked == len(events) {
			break
		}
		body := eval.EncodeTrace(events[acked:])
		req, err := http.NewRequest(http.MethodPost, s.base(id)+"/events", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("PIFT-Offset", strconv.Itoa(acked))
		resp, err := chaotic.Do(req)
		if err != nil {
			// The scheduled tear: reconnect and resume from the ack.
			cut++
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("attempt %d: status %d", attempt, resp.StatusCode)
		}
	}
	if mode == "conn-cut" && cut == 0 {
		t.Fatal("connection cut never fired — the cell proved nothing")
	}

	got := s.verdicts(t, id)
	if !eval.VerdictsEqual(got, want) {
		t.Fatalf("seed %d mode %s: verdicts diverge from one-shot replay (%d vs %d)",
			seed, mode, len(got), len(want))
	}
}

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// ackedOffset reads the session's checkpoint through the clean control
// plane; a session the server has not met yet is at offset 0.
func ackedOffset(t *testing.T, s *testService, id string) int {
	t.Helper()
	for attempt := 0; ; attempt++ {
		resp, err := http.Get(s.base(id) + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var sr server.StatsResponse
		derr := jsonDecode(resp.Body, &sr)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNotFound:
			return 0
		case resp.StatusCode == http.StatusTooManyRequests && attempt < 1000:
			time.Sleep(time.Millisecond)
		case resp.StatusCode == http.StatusOK && derr == nil:
			return int(sr.Acked)
		default:
			t.Fatalf("GET stats %s: status %d err %v", id, resp.StatusCode, derr)
		}
	}
}
