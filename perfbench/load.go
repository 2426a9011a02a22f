package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/server"
)

// minLatencySamples is the ingest and query sample count a p99 needs:
// at least minBeyond samples beyond it.
const minLatencySamples = 1000

// tally is one generator goroutine's share of a load phase; shares merge
// once the phase ends.
type tally struct {
	attempted  int // requests sent, plus requests never sent because their tenant failed
	failed     int // transport errors, timeouts, non-200s (429s included)
	rejected   int // 429s
	ingests    int // ingest requests acked 200
	bigBodies  int // ingest bodies of at least the server's parallel threshold
	mismatches int // wrong acks or verdicts
	events     uint64
	wireBytes  uint64
	ack        latencies
	query      latencies
	late       latencies // open loop: send time minus when the request was due and ready
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.rejected += o.rejected
	t.ingests += o.ingests
	t.bigBodies += o.bigBodies
	t.mismatches += o.mismatches
	t.events += o.events
	t.wireBytes += o.wireBytes
	t.ack = append(t.ack, o.ack...)
	t.query = append(t.query, o.query...)
	t.late = append(t.late, o.late...)
}

// mismatch counts a correctness failure and reports it on stderr.
func (t *tally) mismatch(format string, args ...any) {
	t.mismatches++
	if t.mismatches <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH: "+format+"\n", args...)
	}
}

// loadResult is a finished load phase.
type loadResult struct {
	tally
	wall         time.Duration      // first scheduled send to last completion
	fleetTenants []fleetTenantState // fleet: each tenant's progress at the end
}

// serverParallelThreshold is piftrun's default -parallel-threshold: the
// body size (in events) from which a request may fan out.
const serverParallelThreshold = 65536

// sessionPath is the URL path of tenant id's session.
func sessionPath(id string) string { return "/v1/sessions/" + id }

// post sends one ingest body. A chunked body hides its length, so the
// server sees Transfer-Encoding: chunked and ContentLength −1.
func post(c *client, id string, b body, chunked bool) (server.IngestResponse, int, error) {
	var ir server.IngestResponse
	var rd io.Reader = bytes.NewReader(b.data)
	if chunked {
		rd = struct{ io.Reader }{rd}
	}
	hdr := http.Header{"Pift-Offset": {strconv.FormatUint(b.offset, 10)}}
	status, data, err := c.do(http.MethodPost, sessionPath(id)+"/events", rd, hdr)
	if err != nil {
		return ir, status, err
	}
	return ir, status, json.Unmarshal(data, &ir)
}

func toVerdicts(vs []server.VerdictJSON, canonical bool) []core.SinkVerdict {
	out := make([]core.SinkVerdict, len(vs))
	for i, v := range vs {
		out[i] = core.SinkVerdict{Tag: v.Tag, PID: v.PID, Seq: v.Seq, Tainted: v.Tainted}
	}
	if canonical {
		core.SortVerdicts(out)
	}
	return out
}

// ingestOnce posts b for tenant id and checks the ack against the events
// sent. It reports whether the body was acked.
func (t *tally) ingestOnce(c *client, id string, b body, chunked bool) bool {
	t.attempted++
	t.wireBytes += uint64(len(b.data))
	if b.events >= serverParallelThreshold {
		t.bigBodies++
	}
	ir, status, err := post(c, id, b, chunked)
	for retry := 0; err == nil && status == http.StatusTooManyRequests && retry < maxRetries; retry++ {
		t.refused()
		t.attempted++
		t.wireBytes += uint64(len(b.data))
		time.Sleep(retryPause)
		ir, status, err = post(c, id, b, chunked)
	}
	switch {
	case err != nil:
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: POST at %d: status %d: %v\n", id, b.offset, status, err)
		return false
	case status == http.StatusTooManyRequests:
		t.refused()
		return false
	case status != http.StatusOK:
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: POST at %d: status %d: %s %s\n", id, b.offset, status, ir.Error, ir.Detail)
		return false
	}
	if want := b.offset + uint64(b.events); ir.Acked != want || ir.Ingested != uint64(b.events) {
		t.mismatch("%s: ack %d (ingested %d), sent events up to %d", id, ir.Acked, ir.Ingested, want)
		return false
	}
	t.ingests++
	t.events += uint64(b.events)
	return true
}

// A 429 is retried after retryPause, up to maxRetries times; every
// refused attempt counts as attempted and failed. The server's
// Retry-After hint (whole seconds) is not honoured: the pause models a
// device's short backoff, and the latency still counts the wait.
const (
	maxRetries = 50
	retryPause = time.Millisecond
)

func (t *tally) refused() {
	t.failed++
	t.rejected++
}

// getRetry GETs path into v, retrying 429s. A final 429 is counted as
// refused; any other failure is the caller's to count.
func (t *tally) getRetry(c *client, path string, v any) (int, error) {
	status, err := c.getJSON(path, v)
	for retry := 0; err == nil && status == http.StatusTooManyRequests && retry < maxRetries; retry++ {
		t.refused()
		t.attempted++
		time.Sleep(retryPause)
		status, err = c.getJSON(path, v)
	}
	if err == nil && status == http.StatusTooManyRequests {
		t.rejected++
	}
	return status, err
}

// ackedAt is the absolute event offset a session has acked after the
// first acked bodies of s.
func ackedAt(s *stream, acked int) uint64 {
	last := s.bodies[acked-1]
	return last.offset + uint64(last.events)
}

// verifyVerdicts queries a tenant's verdicts and compares them with the
// oracle's after the first acked bodies. It reports whether the query
// succeeded.
func (t *tally) verifyVerdicts(c *client, id string, s *stream, acked int) bool {
	t.attempted++
	var vr server.VerdictsResponse
	status, err := t.getRetry(c, sessionPath(id)+"/verdicts", &vr)
	if err != nil || status != http.StatusOK {
		t.failed++
		return false
	}
	want := s.want[acked-1]
	if got := toVerdicts(vr.Verdicts, s.canonical); vr.Acked != ackedAt(s, acked) || !eval.VerdictsEqual(got, want) {
		t.mismatch("%s: verdicts at ack %d: server %d verdicts, one-shot oracle %d", id, vr.Acked, len(got), len(want))
	}
	return true
}

// verifyFinalize DELETEs a tenant's session and compares the final
// verdicts it returns with the oracle's after the first acked bodies
// (none acked: the DELETE only has to succeed).
func (t *tally) verifyFinalize(c *client, id string, s *stream, acked int) bool {
	t.attempted++
	status, data, err := c.do(http.MethodDelete, sessionPath(id), nil, nil)
	var vr server.VerdictsResponse
	if err == nil {
		err = json.Unmarshal(data, &vr)
	}
	if err != nil || status != http.StatusOK {
		t.failed++
		return false
	}
	if acked == 0 {
		return true
	}
	want := s.want[acked-1]
	if got := toVerdicts(vr.Verdicts, s.canonical); vr.Acked != ackedAt(s, acked) || !eval.VerdictsEqual(got, want) {
		t.mismatch("%s: final verdicts at ack %d: server %d verdicts, one-shot oracle %d", id, vr.Acked, len(got), len(want))
	}
	return true
}

// verifyStats queries a tenant's stats and checks its ack and verdict
// count against the oracle's after the first acked bodies.
func (t *tally) verifyStats(c *client, id string, s *stream, acked int) bool {
	t.attempted++
	var sr server.StatsResponse
	status, err := t.getRetry(c, sessionPath(id)+"/stats", &sr)
	if err != nil || status != http.StatusOK {
		t.failed++
		return false
	}
	if sr.Acked != ackedAt(s, acked) || sr.Verdicts != len(s.want[acked-1]) {
		t.mismatch("%s: stats ack %d with %d verdicts, oracle %d with %d", id, sr.Acked, sr.Verdicts, ackedAt(s, acked), len(s.want[acked-1]))
	}
	return true
}

// ---- fleet: open loop ----

// fleetTenantState is a tenant's progress during the open loop.
type fleetTenantState struct {
	acked       int   // chunks acked
	failed      bool  // a chunk failed; later requests for the tenant are not sent
	waiters     []int // schedule indices waiting for this tenant's next ack or query
	queriesDone int
	finalized   bool
	span        int64 // root span of the tenant's requests
	first       time.Time
	last        time.Time
}

// fleetRunner drives one open-loop load phase.
type fleetRunner struct {
	plan    *fleetPlan
	rec     *spanRecorder
	t0      time.Time
	readyAt []time.Time // per schedule index: when its dependency was met

	mu      sync.Mutex
	tenants []fleetTenantState
	pending int      // schedule entries not yet resolved
	queue   chan int // schedule indices ready to send
	orphans tally    // requests resolved unsent (their tenant failed)
	lastEnd time.Time
}

// runFleet sends plan's schedule, timed from t0, open-loop over conns
// connections: each request is due at its scheduled time and, if its
// tenant's previous chunk has not been acked by then, goes as soon as it
// is. Latency is timed from the scheduled time, so a stall counts against
// every request behind it.
func runFleet(plan *fleetPlan, base string, conns int, rec *spanRecorder, t0 time.Time) loadResult {
	f := &fleetRunner{
		plan:    plan,
		rec:     rec,
		readyAt: make([]time.Time, len(plan.sched)),
		tenants: make([]fleetTenantState, len(plan.tenants)),
		pending: len(plan.sched),
		// Sized to the schedule so neither the dispatcher nor a worker
		// releasing waiters ever blocks on a send.
		queue: make(chan int, len(plan.sched)),
	}
	for i := range f.tenants {
		f.tenants[i].span = rec.id()
	}
	shares := make([]tally, conns)
	var wg sync.WaitGroup
	f.t0 = t0
	c := newClient(base, conns)
	defer c.close()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for i := range f.queue {
				f.send(c, i, t)
			}
		}(&shares[w])
	}
	if len(plan.sched) == 0 {
		close(f.queue)
	}
	// The dispatcher owns its OS thread and sleeps in nanosleep: the Go
	// timer wakes a sleeper up to a millisecond late on coarse-timer
	// hosts, which would be charged to every request's latency.
	runtime.LockOSThread()
	for i, r := range plan.sched {
		if d := time.Until(f.t0.Add(r.at)); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		f.dispatch(i)
	}
	runtime.UnlockOSThread()
	wg.Wait()

	res := loadResult{wall: f.lastEnd.Sub(f.t0), fleetTenants: f.tenants}
	res.merge(&f.orphans)
	for i := range shares {
		res.merge(&shares[i])
	}
	for i, ts := range f.tenants {
		if !ts.first.IsZero() {
			rec.add(ts.span, 0, "tenant", plan.tenants[i].id, ts.first, ts.last)
		}
	}
	return res
}

// dispatch hands schedule entry i to the senders if its tenant is ready
// for it, parks it otherwise.
func (f *fleetRunner) dispatch(i int) {
	r := f.plan.sched[i]
	f.mu.Lock()
	defer f.mu.Unlock()
	ts := &f.tenants[r.tenant]
	switch {
	case ts.failed:
		f.orphans.attempted++
		f.orphans.failed++
		f.resolveLocked()
	case f.ready(r, ts):
		f.readyAt[i] = f.t0.Add(r.at)
		f.queue <- i
	default:
		ts.waiters = append(ts.waiters, i)
	}
}

// ready reports whether r's dependency is met: an ingest chunk needs its
// predecessor acked, a query needs every chunk acked, and a finalize
// also needs every query of the tenant answered.
func (f *fleetRunner) ready(r fleetReq, ts *fleetTenantState) bool {
	ft := f.plan.tenants[r.tenant]
	switch r.kind {
	case kindIngest:
		return ts.acked == r.chunk
	case kindFinalize:
		return ts.acked == ft.chunks && ts.queriesDone == ft.queries
	}
	return ts.acked == ft.chunks
}

// resolveLocked marks one schedule entry finished; the last one closes
// the queue. Caller holds f.mu.
func (f *fleetRunner) resolveLocked() {
	f.pending--
	if f.pending == 0 {
		close(f.queue)
	}
}

// send performs schedule entry i over c and records it into t.
func (f *fleetRunner) send(c *client, i int, t *tally) {
	r := f.plan.sched[i]
	ft := f.plan.tenants[r.tenant]
	s := f.plan.streams[ft.stream]
	due := f.t0.Add(r.at)
	sent := time.Now()
	t.late = append(t.late, sample{at: sent.Sub(f.t0), d: sent.Sub(f.readyAt[i])})
	var ok bool
	name := "query"
	switch r.kind {
	case kindIngest:
		name = "chunk"
		ok = t.ingestOnce(c, ft.id, s.bodies[r.chunk], false)
	case kindVerdicts:
		ok = t.verifyVerdicts(c, ft.id, s, ft.chunks)
	case kindStats:
		ok = t.verifyStats(c, ft.id, s, ft.chunks)
	case kindFinalize:
		name = "finalize"
		ok = t.verifyFinalize(c, ft.id, s, ft.chunks)
	}
	done := time.Now()
	// Only answered requests are latency samples: a fast refusal must
	// not lower the figures.
	switch {
	case !ok:
	case r.kind == kindIngest:
		t.ack = append(t.ack, sample{at: done.Sub(f.t0), d: done.Sub(due), events: s.bodies[r.chunk].events})
	case r.kind == kindVerdicts, r.kind == kindStats:
		t.query = append(t.query, sample{at: done.Sub(f.t0), d: done.Sub(due)})
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	ts := &f.tenants[r.tenant]
	if f.rec != nil {
		id := f.rec.add(0, ts.span, name, ft.id, due, done)
		f.rec.add(0, id, "request", ft.id, sent, done)
	}
	if ts.first.IsZero() || due.Before(ts.first) {
		ts.first = due
	}
	ts.last = done
	f.lastEnd = done
	f.resolveLocked()
	switch {
	case r.kind == kindFinalize:
		ts.finalized = ok
		return
	case r.kind == kindIngest && !ok:
		ts.failed = true
		for range ts.waiters {
			f.orphans.attempted++
			f.orphans.failed++
			f.resolveLocked()
		}
		ts.waiters = nil
		return
	case r.kind == kindIngest:
		ts.acked++
	default:
		ts.queriesDone++
	}
	kept := ts.waiters[:0]
	for _, w := range ts.waiters {
		if f.ready(f.plan.sched[w], ts) {
			f.readyAt[w] = done
			f.queue <- w
		} else {
			kept = append(kept, w)
		}
	}
	ts.waiters = kept
}

// verifyFleet checks every tenant that acked a chunk and was not
// finalized (a finalize verifies the verdicts it returns) against the
// oracle, after the load phase and outside its timing.
func verifyFleet(plan *fleetPlan, base string, conns int, res *loadResult) {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	shares := make([]tally, conns)
	c := newClient(base, conns)
	defer c.close()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan.tenants) {
					return
				}
				ts := res.fleetTenants[i]
				if ts.acked == 0 || ts.finalized {
					continue
				}
				ft := plan.tenants[i]
				s := plan.streams[ft.stream]
				t.verifyStats(c, ft.id, s, ts.acked)
				t.verifyVerdicts(c, ft.id, s, ts.acked)
			}
		}(&shares[w])
	}
	wg.Wait()
	for i := range shares {
		res.mismatches += shares[i].mismatches
		if shares[i].failed > 0 {
			res.mismatches += shares[i].failed
			fmt.Fprintf(os.Stderr, "perfbench: MISMATCH: %d acked tenants could not be queried after the load\n", shares[i].failed)
		}
	}
}

// ---- bulk and interleave: closed loop ----

// runBulk drives clients closed-loop clients for d from t0. Each uploads one
// tenant's corpus body by body, polls the session's stats after each
// ack, verifies the tenant's verdicts against the oracle, finalizes it
// and starts the next. New bodies stop at d, or later if fewer than
// minLatencySamples ingests have completed (up to 3d).
func runBulk(plan *bulkPlan, seed int64, base string, clients int, d time.Duration, rec *spanRecorder, t0 time.Time) loadResult {
	var (
		wg      sync.WaitGroup
		ingests atomic.Int64
		mu      sync.Mutex
		lastEnd time.Time
	)
	shares := make([]tally, clients)
	more := func() bool {
		el := time.Since(t0)
		return el < d || (ingests.Load() < minLatencySamples && el < 3*d)
	}
	c := newClient(base, clients)
	defer c.close()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int, t *tally) {
			defer wg.Done()
			for k := 0; more(); k++ {
				id, s, chunked := plan.bulkTenant(seed, clients, ci, k)
				root := rec.id()
				tenantStart := time.Now()
				acked := 0
				for _, b := range s.bodies {
					if !more() {
						break
					}
					start := time.Now()
					ok := t.ingestOnce(c, id, b, chunked)
					end := time.Now()
					if rec != nil {
						sid := rec.add(0, root, "chunk", id, start, end)
						rec.add(0, sid, "request", id, start, end)
					}
					if !ok {
						break
					}
					t.ack = append(t.ack, sample{at: end.Sub(t0), d: end.Sub(start), events: b.events})
					ingests.Add(1)
					acked++
					start = time.Now()
					ok = t.verifyStats(c, id, s, acked)
					t.timeQuery(ok, t0, start, rec, root, id)
				}
				if acked > 0 {
					start := time.Now()
					ok := t.verifyVerdicts(c, id, s, acked)
					t.timeQuery(ok, t0, start, rec, root, id)
				}
				t.verifyFinalize(c, id, s, acked)
				rec.add(root, 0, "tenant", id, tenantStart, time.Now())
			}
			mu.Lock()
			lastEnd = time.Now()
			mu.Unlock()
		}(ci, &shares[ci])
	}
	wg.Wait()
	res := loadResult{wall: lastEnd.Sub(t0)}
	for i := range shares {
		res.merge(&shares[i])
	}
	return res
}

// timeQuery records a closed-loop query that started at start: a span,
// and a latency sample if it was answered.
func (t *tally) timeQuery(ok bool, t0, start time.Time, rec *spanRecorder, root int64, id string) {
	end := time.Now()
	if ok {
		t.query = append(t.query, sample{at: end.Sub(t0), d: end.Sub(start)})
	}
	rec.add(0, root, "query", id, start, end)
}
