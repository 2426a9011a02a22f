package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "chunk", Start: 0, End: 100 * ms},
		// Overlapping children are counted once: [10,50) covers 40ms.
		{ID: 2, Parent: 1, Name: "request", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "request", Start: 20 * ms, End: 50 * ms},
		// A child running past its parent is clipped to it: 10ms.
		{ID: 4, Parent: 1, Name: "request", Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its own parent's self time only.
		{ID: 5, Parent: 3, Name: "decode", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	sum := summarize(spans)
	if got := sum["request"]; got.Count != 3 || got.WallMS != 80 || got.SelfMS != 70 {
		t.Errorf("request summary = %+v, want 3 spans, 80ms wall, 70ms self", got)
	}
	if got := sum["chunk"]; got.Count != 1 || got.SelfMS != 50 {
		t.Errorf("chunk summary = %+v, want 1 span, 50ms self", got)
	}
}

func TestNilRecorderIsOff(t *testing.T) {
	var r *spanRecorder
	if id := r.id(); id != 0 {
		t.Errorf("nil recorder id = %d", id)
	}
	now := time.Now()
	if id := r.add(0, 0, "x", "", now, now); id != 0 {
		t.Errorf("nil recorder add = %d", id)
	}
	if err := r.writeTrace("", stamp{}); err != nil {
		t.Errorf("nil recorder writeTrace: %v", err)
	}
}

func TestRecorderParentLinks(t *testing.T) {
	epoch := time.Now()
	r := newSpanRecorder(epoch)
	root := r.id()
	child := r.add(0, root, "request", "t1", epoch.Add(time.Millisecond), epoch.Add(2*time.Millisecond))
	r.add(root, 0, "tenant", "t1", epoch, epoch.Add(3*time.Millisecond))
	if len(r.spans) != 2 || r.spans[0].ID != child || r.spans[0].Parent != root || r.spans[1].ID != root {
		t.Fatalf("spans = %+v", r.spans)
	}
	if got := selfTimes(r.spans)[root]; got != 2*time.Millisecond {
		t.Errorf("root self time = %v, want 2ms", got)
	}
}
