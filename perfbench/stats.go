package main

import (
	"math"
	"sort"
)

// tailLevels are the percentiles a tail may be reported at, highest first.
// A percentile is reportable only when at least minBeyond samples lie
// beyond it; otherwise the tail is that of a lower level.
var tailLevels = []float64{99, 98, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rankOf returns the 0-based index of the p-th percentile in n sorted
// samples (nearest rank).
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// tailLevel returns the highest level in tailLevels with at least minBeyond
// of n samples beyond it, and false when even the lowest has fewer.
func tailLevel(n int) (float64, bool) {
	for _, p := range tailLevels {
		if n-1-rankOf(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the p-th percentile of sorted samples (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)]
}

// sortedCopy returns v sorted ascending, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the median of v (the mean of the middle two for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencySummary is a latency distribution reduced to what the benchmark
// reports: the median and the tail at the highest level that keeps
// minBeyond samples beyond it, with the sample count that justifies it.
// Failed requests are part of the count and rank beyond every answered
// one: a percentile that falls on them reads missedUS.
type latencySummary struct {
	N         int     `json:"n"`
	Failed    int     `json:"failed"`
	P50       float64 `json:"p50"`
	Tail      float64 `json:"tail"`
	TailLevel float64 `json:"tail_level"`
}

// missedUS is the latency a percentile reads when it falls on a failed
// request: the request timeout, the longest the load generator waits for
// any answer, so it misses every latency limit the benchmark applies.
var missedUS = float64(requestTimeout.Microseconds())

// summarize reduces the latencies of answered requests plus failed ones
// that have none; with too few samples for any tail level, the tail is the
// maximum and its level is 100.
func summarize(answered []float64, failed int) latencySummary {
	s := sortedCopy(answered)
	n := len(s) + failed
	out := latencySummary{N: n, Failed: failed}
	if n == 0 {
		return out
	}
	at := func(p float64) float64 {
		if r := rankOf(n, p); r < len(s) {
			return s[r]
		}
		return missedUS
	}
	out.P50 = at(50)
	if lv, ok := tailLevel(n); ok {
		out.TailLevel, out.Tail = lv, at(lv)
	} else {
		out.TailLevel, out.Tail = 100, at(100)
	}
	return out
}

// window is one latency window of an open loop: its latency summary and
// how late the generator itself sent its requests.
type window struct {
	Lat      latencySummary `json:"latency_us"`
	LagP99us float64        `json:"generator_lag_p99_us"`
}

// windowMedians returns the median over windows of their medians and of
// their tails. A window counts when its tail reached level and its
// generator lag stayed within maxLagUS. n is the number of samples behind
// the result; lagged counts the windows set aside for generator lag.
func windowMedians(ws []window, level, maxLagUS float64) (p50, tail float64, n, lagged int) {
	var p50s, tails []float64
	for _, w := range ws {
		switch {
		case w.Lat.TailLevel < level:
		case w.LagP99us > maxLagUS:
			lagged++
		default:
			p50s, tails = append(p50s, w.Lat.P50), append(tails, w.Lat.Tail)
			n += w.Lat.N
		}
	}
	return median(p50s), median(tails), n, lagged
}
