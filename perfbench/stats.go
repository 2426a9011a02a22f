package main

import (
	"math"
	"sort"
	"time"
)

// Latency percentiles follow the nearest-rank rule: the p-th percentile
// of n sorted samples is the sample at rank ceil(p/100·n), so n −
// ceil(p/100·n) samples lie beyond it. A percentile is only reported
// when at least minBeyond samples lie beyond it; otherwise a single
// outlier would set it.
const minBeyond = 10

// candidatePercentiles are the percentiles highestPercentile chooses
// from, in ascending order.
var candidatePercentiles = []float64{50, 90, 99, 99.9, 99.99}

// samplesBeyond reports how many of n samples lie beyond the p-th
// percentile under the nearest-rank rule.
func samplesBeyond(n int, p float64) int {
	return n - nearestRank(n, p)
}

// nearestRank is ceil(p/100·n), at least 1; the epsilon keeps a rank
// that is whole in exact arithmetic from rounding up.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// highestPercentile returns the highest candidate percentile that n
// samples support (at least minBeyond samples beyond it), or 0 when not
// even the median is supported.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range candidatePercentiles {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// sample is one timed request: when it completed, as an offset from the
// start of the load phase, how long it took, and the events it acked.
type sample struct {
	at, d  time.Duration
	events int
}

// latencies is one class of request timings from a run.
type latencies []sample

func (l latencies) sorted() []time.Duration {
	out := make([]time.Duration, len(l))
	for i, s := range l {
		out[i] = s.d
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// supports reports whether the sample supports the p-th percentile.
func (l latencies) supports(p float64) bool { return samplesBeyond(len(l), p) >= minBeyond }

// ms returns the p-th percentile in milliseconds.
func (l latencies) ms(p float64) float64 {
	return float64(percentile(l.sorted(), p)) / 1e6
}

// eventsIn sums the events acked by samples that completed in [0, span).
func (l latencies) eventsIn(span time.Duration) float64 {
	var n float64
	for _, s := range l {
		if s.at >= 0 && s.at < span {
			n += float64(s.events)
		}
	}
	return n
}

// meanMS returns the mean in milliseconds.
func (l latencies) meanMS() float64 {
	if len(l) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l {
		sum += s.d
	}
	return float64(sum) / float64(len(l)) / 1e6
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
