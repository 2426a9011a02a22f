package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval the benchmark spent around a call into a
// layer: an HTTP request, a tenant's chunk, a query, or one stage-ledger
// call. Parent is 0 for a root span; spans of one tenant share Tenant.
// Start and End are offsets from the recorder's epoch.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Tenant string        `json:"tenant,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// is tracing off: every method is a no-op that costs one nil check.
type spanRecorder struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	spans  []Span
}

func newSpanRecorder(epoch time.Time) *spanRecorder {
	return &spanRecorder{epoch: epoch, spans: make([]Span, 0, 1<<16)}
}

// id reserves a span identifier, so a span's children can name it as
// their parent before it ends.
func (r *spanRecorder) id() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a finished span with a reserved id (0 reserves one now).
func (r *spanRecorder) add(id, parent int64, name, tenant string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.nextID++
		id = r.nextID
	}
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name, Tenant: tenant,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch),
	})
	return id
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count  int     `json:"count"`
	WallMS float64 `json:"wall_ms"`
	SelfMS float64 `json:"self_ms"`
}

// selfTimes returns each span's self time — its duration minus the part
// of its interval covered by its children, overlapping children counted
// once and clipped to the parent — keyed by span id.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the kids' intervals,
// clipped to parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// summarize groups spans by name with total wall and self time.
func summarize(spans []Span) map[string]spanSummary {
	self := selfTimes(spans)
	out := make(map[string]spanSummary)
	for _, s := range spans {
		sum := out[s.Name]
		sum.Count++
		sum.WallMS += float64(s.End-s.Start) / 1e6
		sum.SelfMS += float64(self[s.ID]) / 1e6
		out[s.Name] = sum
	}
	return out
}

// writeTrace writes the run's stamp, span summary and every span to path.
func (r *spanRecorder) writeTrace(path string, st stamp) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Stamp   stamp                  `json:"stamp"`
		Summary map[string]spanSummary `json:"summary"`
		Spans   []Span                 `json:"spans"`
	}{st, summarize(r.spans), r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
