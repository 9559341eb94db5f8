package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: a p90 of 60 samples rests on 6 values and swings with
// any one of them.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of an ascending sample: the
// smallest value with at least q of the sample at or below it. ok is
// false when the sample is empty, or when q is a tail (q > 0.5) with
// fewer than minBeyond samples above the returned rank.
func quantile(asc []float64, q float64) (v float64, ok bool) {
	n := len(asc)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	if q > 0.5 && n-1-rank < minBeyond {
		return asc[rank], false
	}
	return asc[rank], true
}

// median is the middle of xs (mean of the two middle values when even).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method),
// the rule the acceptance driver applies to run-to-run spread. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spreadPct is the interquartile range of xs as a percentage of its
// median: the steadiness figure reported per metric across rounds and
// across runs.
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m) * 100
}

// estimate is one timing metric as the estimator reports it. Every round
// does the same fixed work and yields its own statistic (a p50, a p90, a
// request rate), so rounds differ only by what else the box was doing,
// and that only ever makes a round worse. The value is therefore the
// quartile of the rounds on the metric's good side — the first for a
// latency, the third for a rate — the same rule for every timing metric:
// it needs a quarter of the rounds undisturbed, not half, and unlike the
// best round it does not rest on one lucky one. README.md has the
// measurements against the median. The interquartile spread of the rounds
// is kept beside the value: it says how disturbed the run was.
type estimate struct {
	Value     float64   `json:"value"`
	SpreadPct float64   `json:"round_spread_pct"`
	Rounds    int       `json:"rounds"`
	PerRound  int       `json:"samples_per_round"`
	Values    []float64 `json:"per_round,omitempty"` // each round's statistic, in order
}

// acrossRounds reduces one statistic per round to an estimate; samples is
// how many measurements stood behind each round's statistic.
func acrossRounds(perRound []float64, higherIsBetter bool, samples int) estimate {
	e := estimate{SpreadPct: spreadPct(perRound), Rounds: len(perRound), PerRound: samples, Values: perRound}
	q1, q3 := quartiles(perRound)
	if e.Value = q1; higherIsBetter {
		e.Value = q3
	}
	return e
}

// p90OrMedian is the p90 of a one-off sample, or its median when the
// sample is too small to support a tail.
func p90OrMedian(xs []float64) float64 {
	if v, ok := quantile(sorted(xs), 0.9); ok {
		return v
	}
	return median(xs)
}

// roundQuantile reduces each round's latencies to its q-quantile and the
// rounds to an estimate. ok is false when there are no rounds or when a
// round is too small to support the quantile (see minBeyond).
func roundQuantile(rounds [][]float64, q float64) (e estimate, ok bool) {
	per := make([]float64, len(rounds))
	ok = len(rounds) > 0
	samples := 0
	for i, r := range rounds {
		v, good := quantile(sorted(r), q)
		ok = ok && good
		per[i], samples = v, len(r)
	}
	return acrossRounds(per, false, samples), ok
}
