package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/eval"
)

func fleetFingerprint(t *testing.T, seed int64) *fleetPlan {
	t.Helper()
	p, err := planFleet(eval.NewHarness(4), seed, 2*time.Second, fleetIngestRate, fleetQueryRate)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sameBodies(a, b []*stream) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
		if a[i] == nil {
			continue
		}
		if len(a[i].bodies) != len(b[i].bodies) {
			return false
		}
		for j := range a[i].bodies {
			x, y := a[i].bodies[j], b[i].bodies[j]
			if x.offset != y.offset || x.events != y.events || !bytes.Equal(x.data, y.data) {
				return false
			}
		}
	}
	return true
}

func TestFleetPlanDeterministic(t *testing.T) {
	a, b := fleetFingerprint(t, 1), fleetFingerprint(t, 1)
	if !reflect.DeepEqual(a.sched, b.sched) || !reflect.DeepEqual(a.tenants, b.tenants) {
		t.Error("same seed gave a different schedule")
	}
	if !sameBodies(a.streams, b.streams) {
		t.Error("same seed gave different bodies")
	}
	c := fleetFingerprint(t, 2)
	if reflect.DeepEqual(a.sched, c.sched) {
		t.Error("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a.tenants, c.tenants) {
		t.Error("different seeds gave the same tenants")
	}
}

func TestFleetPlanShape(t *testing.T) {
	p := fleetFingerprint(t, 3)
	var ingests, queries, finalizes int
	for i, r := range p.sched {
		if i > 0 && r.at < p.sched[i-1].at {
			t.Fatalf("schedule not in time order at %d", i)
		}
		switch r.kind {
		case kindIngest:
			ingests++
		case kindFinalize:
			finalizes++
		default:
			queries++
		}
	}
	// Two seconds at the fixed rates, give or take the slots cut at the end.
	if want := int(2 * fleetIngestRate); ingests < want*8/10 || ingests > want {
		t.Errorf("%d ingests, want about %d", ingests, want)
	}
	if want := int(2 * fleetQueryRate); queries < want*8/10 || queries > want {
		t.Errorf("%d queries, want about %d", queries, want)
	}
	if finalizes == 0 {
		t.Error("no tenant is finalized")
	}
}

func TestBulkPlanDeterministic(t *testing.T) {
	for _, w := range []string{"bulk", "interleave"} {
		a, b, c := planBulk(w, 1, 1, 1), planBulk(w, 1, 1, 1), planBulk(w, 2, 1, 1)
		if !sameBodies(a.corpora, b.corpora) {
			t.Errorf("%s: same seed gave different bodies", w)
		}
		if sameBodies(a.corpora, c.corpora) {
			t.Errorf("%s: different seeds gave the same bodies", w)
		}
		if !reflect.DeepEqual(a.corpora[0].want, b.corpora[0].want) {
			t.Errorf("%s: same seed gave a different oracle", w)
		}
	}
}

func TestBulkTenantsAlternateShape(t *testing.T) {
	p := &bulkPlan{corpora: make([]*stream, 4)}
	for k := 0; k < 4; k++ {
		_, _, c0 := p.bulkTenant(1, 2, 0, k)
		_, _, c1 := p.bulkTenant(1, 2, 1, k)
		if c0 == c1 {
			t.Errorf("tenant %d: both clients send the same body shape", k)
		}
		_, _, next := p.bulkTenant(1, 2, 0, k+1)
		if next == c0 {
			t.Errorf("client 0 tenants %d and %d share a body shape", k, k+1)
		}
	}
}
