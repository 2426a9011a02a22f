// Package server turns the PIFT tracker into a long-running
// multi-tenant taint service — the paper's decoupled analysis core
// (§3) lifted to a network boundary. Devices ship their recorded event
// streams (the trace wire format, chunked or whole) over HTTP; the server
// runs one logical core.Tracker session per tenant and answers taint
// queries about it.
//
// The serving model, in one paragraph: every tenant ID owns a session.
// Live sessions hold a tracker in memory and are charged an estimated
// footprint against a configurable byte budget; when the budget
// overflows, the coldest sessions dehydrate — their complete state
// serialized through the canonical PIFTSNP1 snapshot codec into a spill
// file — and rehydrate transparently on next touch, byte-identical. That
// LRU spill loop is what lets tens of thousands of logical sessions share
// a laptop's worth of memory. Ingestion is admission-controlled twice: a
// global cap on concurrent streams, and per-tenant serialization (one
// stream per session at a time); both reject with 429 + Retry-After
// rather than queueing unboundedly. Each session tracks an acknowledged
// event offset — its checkpoint — so a client cut off mid-stream re-sends
// from the ack and the merged stream is exactly what an uninterrupted
// upload would have been.
//
// Endpoints (register on any mux, conventionally the /metrics mux):
//
//	POST   /v1/sessions/{id}/events    ingest a trace stream for tenant {id}
//	GET    /v1/sessions/{id}/verdicts  sink verdicts recorded so far
//	GET    /v1/sessions/{id}/stats     tracker stats + session state
//	DELETE /v1/sessions/{id}           finalize: return verdicts, free state
//	GET    /v1/sessions                list sessions (id, state, ack)
//
// The ingest request may set PIFT-Offset to the absolute event offset of
// the body's first event (default 0). Offsets at or before the session's
// ack deduplicate — already-applied events are skipped; an offset past
// the ack is a gap and is refused with 409. Every ingest response carries
// PIFT-Ack-Offset, the session's new checkpoint.
//
// Each session consumes its stream in order through one tracker, so GET
// /verdicts and DELETE return verdicts in arrival order: the order a
// one-shot replay of the acknowledged stream records them
// (eval.OneShotVerdicts), however many PIDs the stream interleaves and
// however it was split across requests.
package server

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Config parameterizes a Server.
type Config struct {
	// Tracker is the window configuration every session runs.
	Tracker core.Config
	// SpillDir is where dehydrated sessions live. Required. Spill files
	// found at startup are recovered as dormant sessions.
	SpillDir string
	// MemoryBudget bounds the estimated resident bytes of live tracker
	// state; past it, cold sessions spill. <= 0 selects 64 MiB.
	MemoryBudget int64
	// MaxStreams caps concurrent ingest streams. <= 0 selects 64.
	MaxStreams int
	// RetryAfter is the backoff hint attached to 429 responses. <= 0
	// selects 1 second.
	RetryAfter time.Duration
	// Registry receives the serving metrics; nil disables them.
	Registry *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 64 << 20
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the multi-tenant taint service. Create with New, attach with
// Register, and it is fully concurrent-safe thereafter.
type Server struct {
	cfg     Config
	m       *serverMetrics
	streams chan struct{} // counting semaphore on concurrent ingests

	mu        sync.Mutex
	sessions  map[string]*session
	lru       *list.List // *session, front = hottest; live sessions only
	liveBytes int64
}

// New builds a server, creating the spill directory if needed and
// recovering any sessions a previous process dehydrated into it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Tracker.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.SpillDir == "" {
		return nil, fmt.Errorf("server: SpillDir is required")
	}
	if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		m:        newServerMetrics(cfg.Registry),
		streams:  make(chan struct{}, cfg.MaxStreams),
		sessions: make(map[string]*session),
		lru:      list.New(),
	}
	if err := s.recoverSpilled(); err != nil {
		return nil, err
	}
	return s, nil
}

// Register attaches the service's routes to mux — typically the mux that
// already serves /metrics and /healthz, so one listener carries both the
// data plane and its observability.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleIngest)
	mux.HandleFunc("GET /v1/sessions/{id}/verdicts", s.handleVerdicts)
	mux.HandleFunc("GET /v1/sessions/{id}/stats", s.handleStats)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleFinalize)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
}

// SessionCount returns (live, spilled) session counts.
func (s *Server) SessionCount() (live, spilled int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live = s.lru.Len()
	return live, len(s.sessions) - live
}

// IngestResponse is the JSON body of every ingest reply, success or error.
type IngestResponse struct {
	Session  string `json:"session"`
	Acked    uint64 `json:"acked"`    // checkpoint: events applied so far
	Ingested uint64 `json:"ingested"` // events applied by this request
	Error    string `json:"error,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// VerdictJSON is one sink verdict on the wire.
type VerdictJSON struct {
	Tag     int    `json:"tag"`
	PID     uint32 `json:"pid"`
	Seq     uint64 `json:"seq"`
	Tainted bool   `json:"tainted"`
}

// VerdictsResponse is the GET /verdicts and DELETE reply body.
type VerdictsResponse struct {
	Session  string        `json:"session"`
	Acked    uint64        `json:"acked"`
	Verdicts []VerdictJSON `json:"verdicts"`
}

// StatsResponse is the GET /stats reply body.
type StatsResponse struct {
	Session  string     `json:"session"`
	State    string     `json:"state"` // "live" or "spilled"
	Acked    uint64     `json:"acked"`
	Verdicts int        `json:"verdicts"`
	Stats    core.Stats `json:"stats"`
}

// SessionSummary is one row of GET /v1/sessions.
type SessionSummary struct {
	Session string `json:"session"`
	State   string `json:"state"`
	Acked   uint64 `json:"acked"`
}

// ListResponse is the GET /v1/sessions reply body.
type ListResponse struct {
	Live     int              `json:"live"`
	Spilled  int              `json:"spilled"`
	Sessions []SessionSummary `json:"sessions"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// reject429 answers an admission-control rejection with the retry hint.
func (s *Server) reject429(w http.ResponseWriter, id, code string) {
	w.Header().Set("Retry-After",
		strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusTooManyRequests, IngestResponse{
		Session: id, Error: code,
	})
}

// ingestBatchSize bounds the per-stream decode scratch (~32 KiB).
const ingestBatchSize = 1024

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Admission gate 1: the global concurrent-stream cap.
	select {
	case s.streams <- struct{}{}:
		defer func() { <-s.streams }()
	default:
		s.m.streamsRejected.Inc()
		s.reject429(w, id, "server-busy")
		return
	}
	s.m.streamsInFlight.Inc()
	defer s.m.streamsInFlight.Dec()

	sess := s.getOrCreate(id)
	// Admission gate 2: per-tenant backpressure — one stream per session.
	if !sess.mu.TryLock() {
		sess.mStalls.Inc()
		s.reject429(w, id, "tenant-busy")
		return
	}

	start := time.Now()
	resp, ierr := s.ingestLocked(sess, r)
	sess.mu.Unlock()
	// Shedding runs after the session lock drops, so the freshly touched
	// session is itself evictable if it alone overflows the budget.
	s.enforceBudget()
	s.m.ingestSeconds.Observe(time.Since(start).Seconds())
	s.m.liveBytes.Set(s.currentLiveBytes())

	if ierr != nil {
		s.m.ingestErrors.Inc()
		resp.Error = ierr.Code
		resp.Detail = ierr.Err.Error()
		w.Header().Set("PIFT-Ack-Offset", strconv.FormatUint(resp.Acked, 10))
		writeJSON(w, ierr.Status, resp)
		return
	}
	w.Header().Set("PIFT-Ack-Offset", strconv.FormatUint(resp.Acked, 10))
	writeJSON(w, http.StatusOK, resp)
}

// ingestLocked streams one request body into sess's tracker. Caller holds
// sess.mu. A trace.Reader decodes the byte-counting body, Skip drops the
// overlap the session has already acknowledged, and NextBatch feeds the
// session tracker in arrival order. Every decoded event is applied and
// acknowledged at once, so events decoded before any failure are
// committed and reflected in the returned ack — the resume contract.
//
// Both formats share that contract, expressed in event counts: a cut
// PIFTTRC1 body acks at the exact event the cut landed on, a cut PIFTTRC2
// body at the last whole block decoded before it — the reader refuses a
// torn or CRC-damaged block outright, so no partial-block event is ever
// applied — and the client resends from the ack either way.
func (s *Server) ingestLocked(sess *session, r *http.Request) (IngestResponse, *IngestError) {
	resp := IngestResponse{Session: sess.id, Acked: sess.acked.Load()}
	if sess.tr == nil && !sess.spilled.Load() {
		// Finalized by a concurrent DELETE between map fetch and lock.
		return resp, &IngestError{
			Status: http.StatusGone, Code: "finalized",
			Err: fmt.Errorf("session %q was finalized", sess.id),
		}
	}
	if sess.spilled.Load() {
		if err := s.hydrate(sess); err != nil {
			// The one genuinely server-side failure in the ingest path.
			return resp, &IngestError{
				Status: http.StatusInternalServerError, Code: "hydrate-failed", Err: err,
			}
		}
	}

	// Where in the tenant's absolute event stream does this body start?
	var bodyStart uint64
	if h := r.Header.Get("PIFT-Offset"); h != "" {
		v, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			return resp, &IngestError{
				Status: http.StatusBadRequest, Code: "bad-offset",
				Err: fmt.Errorf("PIFT-Offset %q: %w", h, err),
			}
		}
		bodyStart = v
	}
	acked := sess.acked.Load()
	if bodyStart > acked {
		return resp, &IngestError{
			Status: http.StatusConflict, Code: "offset-gap",
			Err: fmt.Errorf("body starts at event %d but session has acknowledged %d", bodyStart, acked),
		}
	}

	cr := &countingBody{r: r.Body}
	defer func() {
		sess.mBytes.Add(uint64(cr.n))
		s.m.ingestBytes.Add(uint64(cr.n))
	}()
	tr, err := trace.NewReader(cr)
	if err != nil {
		return resp, classifyIngest(err)
	}
	// Deduplicate the overlap: events before the ack were applied by an
	// earlier request (or an earlier attempt of this one).
	if skip := acked - bodyStart; skip > 0 {
		if skip >= tr.Len() {
			return resp, nil // the whole body is a duplicate
		}
		if err := tr.Skip(skip); err != nil {
			return resp, classifyIngest(err)
		}
	}

	verdictsBefore := len(sess.tr.Verdicts())
	var ierr *IngestError
	dst := make([]cpu.Event, ingestBatchSize)
	for {
		n, err := tr.NextBatch(dst)
		for i := 0; i < n; i++ {
			sess.tr.Event(dst[i])
		}
		sess.acked.Add(uint64(n))
		resp.Ingested += uint64(n)
		if err != nil {
			if err != io.EOF {
				ierr = classifyIngest(err)
			}
			break
		}
	}

	resp.Acked = sess.acked.Load()
	sess.mEvents.Add(resp.Ingested)
	sess.mVerdicts.Add(uint64(len(sess.tr.Verdicts()) - verdictsBefore))
	s.touch(sess)
	return resp, ierr
}

// countingBody counts bytes drawn from a request body, for per-tenant
// ingress accounting.
type countingBody struct {
	r io.Reader
	n int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) currentLiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveBytes
}

// withSession runs fn with the session's state under a TryLock: a query
// that finds the tenant mid-ingest gets a 429 rather than queueing behind
// it.
func (s *Server) withSession(w http.ResponseWriter, r *http.Request, fn func(sess *session, tr *core.Tracker)) {
	id := r.PathValue("id")
	sess := s.lookup(id)
	if sess == nil {
		writeJSON(w, http.StatusNotFound, IngestResponse{Session: id, Error: "unknown-session"})
		return
	}
	if !sess.mu.TryLock() {
		sess.mStalls.Inc()
		s.reject429(w, id, "tenant-busy")
		return
	}
	defer sess.mu.Unlock()
	if tr, ok := s.sessionState(w, sess); ok {
		fn(sess, tr)
	}
}

// sessionState returns the tracker a query reads: the live one, or for a
// spilled session a copy decoded from its spill file without changing its
// residency — a read-only query against 10k dormant sessions must not
// thrash the LRU. On failure it writes the error response and reports
// false. Caller holds sess.mu.
func (s *Server) sessionState(w http.ResponseWriter, sess *session) (*core.Tracker, bool) {
	if sess.spilled.Load() {
		tr, err := s.peekSpilled(sess)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, IngestResponse{
				Session: sess.id, Error: "hydrate-failed", Detail: err.Error(),
			})
			return nil, false
		}
		return tr, true
	}
	if sess.tr == nil { // finalized while the caller waited for mu
		writeJSON(w, http.StatusNotFound, IngestResponse{Session: sess.id, Error: "unknown-session"})
		return nil, false
	}
	return sess.tr, true
}

func verdictsJSON(tr *core.Tracker) []VerdictJSON {
	vs := tr.Verdicts()
	out := make([]VerdictJSON, len(vs))
	for i, v := range vs {
		out[i] = VerdictJSON{Tag: v.Tag, PID: v.PID, Seq: v.Seq, Tainted: v.Tainted}
	}
	return out
}

func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(sess *session, tr *core.Tracker) {
		writeJSON(w, http.StatusOK, VerdictsResponse{
			Session:  sess.id,
			Acked:    sess.acked.Load(),
			Verdicts: verdictsJSON(tr),
		})
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(sess *session, tr *core.Tracker) {
		state := "live"
		if sess.spilled.Load() {
			state = "spilled"
		}
		writeJSON(w, http.StatusOK, StatsResponse{
			Session:  sess.id,
			State:    state,
			Acked:    sess.acked.Load(),
			Verdicts: len(tr.Verdicts()),
			Stats:    tr.Stats(),
		})
	})
}

// handleFinalize answers with the session's final verdicts and releases
// every resource it held — memory, LRU slot, spill file. Finalize blocks
// behind an in-flight ingest rather than racing it.
func (s *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.lookup(id)
	if sess == nil {
		writeJSON(w, http.StatusNotFound, IngestResponse{Session: id, Error: "unknown-session"})
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	tr, ok := s.sessionState(w, sess)
	if !ok {
		return
	}
	resp := VerdictsResponse{
		Session:  sess.id,
		Acked:    sess.acked.Load(),
		Verdicts: verdictsJSON(tr),
	}
	s.remove(sess)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := ListResponse{Live: s.lru.Len()}
	resp.Spilled = len(s.sessions) - resp.Live
	resp.Sessions = make([]SessionSummary, 0, len(s.sessions))
	for id, sess := range s.sessions {
		state := "live"
		if sess.spilled.Load() {
			state = "spilled"
		}
		resp.Sessions = append(resp.Sessions, SessionSummary{
			Session: id, State: state, Acked: sess.acked.Load(),
		})
	}
	s.mu.Unlock()
	sortSummaries(resp.Sessions)
	writeJSON(w, http.StatusOK, resp)
}
