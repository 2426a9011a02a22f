package main

import (
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // p50 is rank 10: 9 beyond
		{20, 50},   // p50 is rank 10: 10 beyond
		{99, 50},   // p90 is rank 90: 9 beyond
		{100, 90},  // p90 is rank 90: 10 beyond
		{999, 90},  // p99 is rank 990: 9 beyond
		{1000, 99}, // p99 is rank 990: 10 beyond
		{9999, 99},
		{10000, 99.9},
		{100000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var l latencies
	for i := 1; i <= 1000; i++ {
		l = append(l, sample{d: time.Duration(i) * time.Millisecond})
	}
	if got := l.ms(99); got != 990 {
		t.Errorf("p99 of 1..1000 ms = %v, want 990", got)
	}
	if got := l.ms(50); got != 500 {
		t.Errorf("p50 of 1..1000 ms = %v, want 500", got)
	}
	if !l.supports(99) || l[:999].supports(99) {
		t.Error("a p99 needs 1000 samples")
	}
}

func TestEventsIn(t *testing.T) {
	l := latencies{
		{at: 0, events: 10},
		{at: 999 * time.Millisecond, events: 5},
		{at: time.Second, events: 1000}, // completed after the span: not counted
	}
	if got := l.eventsIn(time.Second); got != 15 {
		t.Errorf("eventsIn = %v, want 15", got)
	}
}
