package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/eval"
	"repro/internal/trace"
	"repro/internal/trace/tracegen"
)

// trackerConfig is piftrun's default window configuration (-ni 13 -nt 3
// -untaint=true), which the server under test runs with; the oracle must
// use the same one.
var trackerConfig = core.Config{NI: 13, NT: 3, Untaint: true}

// body is one pre-encoded ingest request body.
type body struct {
	offset uint64 // absolute event offset of the body's first event (PIFT-Offset)
	events int
	data   []byte
}

// stream is one tenant's event stream split into request bodies, with
// the one-shot oracle's verdicts after each body prefix: want[k] is what
// a session that acked bodies[:k+1] must answer.
type stream struct {
	bodies []body
	want   [][]core.SinkVerdict
	// canonical marks a multi-PID stream whose verdicts are compared in
	// canonical (PID, Seq, Tag) order: the server's sharded ingest path
	// stores them that way, the sequential path in trace order.
	canonical bool
}

// newStream splits events into bodies of at most per events, encodes
// them in format f, and records the oracle's verdicts after each body.
func newStream(events []cpu.Event, per int, f trace.Format, canonical bool) *stream {
	s := &stream{canonical: canonical}
	tr := core.NewTracker(trackerConfig, nil)
	for start := 0; start < len(events); start += per {
		end := min(start+per, len(events))
		s.bodies = append(s.bodies, body{
			offset: uint64(start),
			events: end - start,
			data:   eval.EncodeTraceFormat(events[start:end], f),
		})
		for _, ev := range events[start:end] {
			tr.Event(ev)
		}
		want := append([]core.SinkVerdict(nil), tr.Verdicts()...)
		if canonical {
			core.SortVerdicts(want)
		}
		s.want = append(s.want, want)
	}
	return s
}

// ---- fleet: open loop over many small DroidBench-derived tenants ----

// Fleet parameters. The offered load, 800 requests/s plus finalizes,
// is a fifth to a quarter of the saturated closed-loop capacity of this
// request mix (measured by raising both rates until the open loop
// saturated, on a 2-vCPU x86-64 VM; see README.md). It is fixed so
// that every commit is measured at the same offered load, and set low
// because that capacity moved by up to 2x with the host's load: nearer
// the knee the open loop's latencies would follow the host rather than
// the server.
const (
	fleetIngestRate = 400.0 // ingest requests per second
	fleetQueryRate  = 400.0 // verdict/stats queries per second
	fleetChunks     = 4     // resumable chunks per tenant
	fleetStreams    = 512   // distinct tenant event streams (eval.TenantEvents indices)
	fleetRecent     = 64    // queries target the most recently finished tenants
	// fleetSpillBudget is piftrun's -spill-budget for fleet: about a
	// third of the live working set (some 70 tenants mid-upload or
	// awaiting finalize, at ~700 estimated bytes each), so every new
	// tenant evicts a cold one and queries and finalizes reach spilled
	// sessions through the peek path.
	fleetSpillBudget = 16 << 10
)

// A tenant's chunks are spaced by uniform gaps in this range.
const (
	fleetChunkGapMin = 10 * time.Millisecond
	fleetChunkGapMax = 50 * time.Millisecond
)

type reqKind uint8

const (
	kindIngest reqKind = iota
	kindVerdicts
	kindStats
	kindFinalize
)

// fleetReq is one scheduled request of the open loop.
type fleetReq struct {
	at     time.Duration // scheduled send time from the start of the load phase
	kind   reqKind
	tenant int
	chunk  int // ingest only
}

// fleetTenant is one device: a tenant ID and the stream it uploads.
type fleetTenant struct {
	id      string
	stream  int
	chunks  int // chunks scheduled inside the load phase
	queries int // verdict/stats queries scheduled for the tenant
}

// fleetPlan is the fleet workload's complete input for one seed.
type fleetPlan struct {
	streams []*stream
	tenants []fleetTenant
	sched   []fleetReq
}

// planFleet builds the fleet schedule for a load phase of length d.
// Tenants arrive at a fixed rate, each at a uniformly jittered point of
// its own arrival slot, and take the tenant streams in a seeded order
// that cycles through all of them, so the offered events per second do
// not depend on the seed. Each tenant uploads its stream in
// fleetChunks chunks spaced by uniform gaps (a chunk still waits for its
// predecessor's ack at run time). Queries arrive the same way at their
// own rate and pick, with a Zipf skew towards the most recent, one of the
// last fleetRecent tenants whose final chunk was scheduled before the
// query. A tenant is finalized (DELETE) once it drops out of that
// window, so the server's session count and spill directory reach a
// steady state instead of growing with the run.
func planFleet(h *eval.Harness, seed int64, d time.Duration, ingestRate, queryRate float64) (*fleetPlan, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 1))
	p := &fleetPlan{streams: make([]*stream, fleetStreams)}
	type done struct {
		at     time.Duration
		tenant int
	}
	var finished []done
	order := rng.Perm(fleetStreams)
	for _, t := range slots(rng, d, ingestRate/fleetChunks) {
		ti := len(p.tenants)
		k := order[ti%fleetStreams]
		if p.streams[k] == nil {
			events, err := h.TenantEvents(k)
			if err != nil {
				return nil, err
			}
			per := (len(events) + fleetChunks - 1) / fleetChunks
			p.streams[k] = newStream(events, per, trace.FormatV1, false)
		}
		ft := fleetTenant{id: fmt.Sprintf("fleet-%d-%05d", seed, ti), stream: k}
		at := t
		for c := range p.streams[k].bodies {
			if c > 0 {
				at += fleetChunkGapMin + time.Duration(rng.Int63n(int64(fleetChunkGapMax-fleetChunkGapMin)))
			}
			if at >= d {
				break
			}
			p.sched = append(p.sched, fleetReq{at: at, kind: kindIngest, tenant: ti, chunk: c})
			ft.chunks++
		}
		if ft.chunks == len(p.streams[k].bodies) {
			finished = append(finished, done{at, ti})
		}
		p.tenants = append(p.tenants, ft)
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].at < finished[j].at })
	zipf := rand.NewZipf(rng, 1.2, 1, fleetRecent-1)
	for _, t := range slots(rng, d, queryRate) {
		n := sort.Search(len(finished), func(i int) bool { return finished[i].at >= t })
		r := int(zipf.Uint64())
		kind := kindVerdicts
		if rng.Intn(2) == 1 {
			kind = kindStats
		}
		if r >= n {
			continue // too early in the run: fewer finished tenants than the rank
		}
		ti := finished[n-1-r].tenant
		p.tenants[ti].queries++
		p.sched = append(p.sched, fleetReq{at: t, kind: kind, tenant: ti})
	}
	for i := 0; i+fleetRecent < len(finished); i++ {
		p.sched = append(p.sched, fleetReq{at: finished[i+fleetRecent].at, kind: kindFinalize, tenant: finished[i].tenant})
	}
	sort.SliceStable(p.sched, func(i, j int) bool { return p.sched[i].at < p.sched[j].at })
	return p, nil
}

// slots returns one arrival time per slot of length 1/rate in [0, d),
// each uniformly placed within its slot.
func slots(rng *rand.Rand, d time.Duration, rate float64) []time.Duration {
	gap := time.Duration(float64(time.Second) / rate)
	var out []time.Duration
	for start := time.Duration(0); start+gap <= d; start += gap {
		out = append(out, start+time.Duration(rng.Int63n(int64(gap))))
	}
	return out
}

// ---- bulk and interleave: closed loop over large synthetic tenants ----

// Bulk parameters. Bodies are PIFTTRC2 blocks of bulkBodyEvents events,
// twice the server's default parallel-ingest threshold, so every body
// is eligible for the sharded path.
const (
	bulkBodyEvents   = 131072
	bulkTenantBodies = 8
)

// bulkPlan is a pool of tenant corpora; closed-loop clients cycle
// through it under fresh tenant IDs.
type bulkPlan struct {
	corpora []*stream
}

// bulkSpec returns the tracegen shape of a bulk-family workload.
func bulkSpec(workload string) tracegen.Spec {
	if workload == "interleave" {
		return tracegen.Spec{PIDs: 512, Quantum: 1, SourceEvery: 512}
	}
	return tracegen.Spec{PIDs: 64, Quantum: 64}
}

// planBulk generates n corpora of the workload's shape.
func planBulk(workload string, seed int64, n, bodies int) *bulkPlan {
	p := &bulkPlan{}
	for j := 0; j < n; j++ {
		spec := bulkSpec(workload)
		spec.Seed = seed*1_000_003 + int64(j)
		spec.Events = bodies * bulkBodyEvents
		rec := tracegen.Generate(spec)
		p.corpora = append(p.corpora, newStream(rec.Events, bulkBodyEvents, trace.FormatV2, true))
	}
	return p
}

// bulkTenant names client c's k-th tenant, picks its corpus, and says
// whether its bodies go chunked (length unknown to the server, so they
// take the streaming push route) or with a declared length (spooled
// DrainTrace route). Concurrent clients run opposite shapes.
func (p *bulkPlan) bulkTenant(seed int64, clients, c, k int) (id string, s *stream, chunked bool) {
	id = fmt.Sprintf("bulk-%d-c%d-%05d", seed, c, k)
	return id, p.corpora[(c+k*clients)%len(p.corpora)], (c+k)%2 == 1
}
