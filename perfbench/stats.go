package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile taken from fewer would be one or two lucky samples.
const minBeyond = 10

// dist summarises one latency sample set.
type dist struct {
	N   int
	P50 float64 // median, ms
	// Tail is the highest percentile at or below the one asked for that
	// has minBeyond samples above it; TailPct names it (e.g. 97.8).
	Tail    float64
	TailPct float64
}

// tailPercentile returns the highest percentile, at most want (in
// percent), that leaves at least minBeyond of n samples above it; it
// falls back to the median when n is too small for anything higher.
func tailPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 0
	}
	p := 100 * (1 - float64(minBeyond)/float64(n))
	if p > want {
		p = want
	}
	if p < 50 {
		p = 50
	}
	return p
}

// percentile is the nearest-rank percentile of sorted samples: the
// smallest sample with at least pct% of the samples at or below it.
func percentile(sorted []float64, pct float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(pct/100*float64(len(sorted)) - 1e-9)) // tolerate rounding in pct
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median averages the two middle samples of an even-sized set.
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

// mean is the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// summarize reports the median and the highest supported percentile up
// to want of a sample set.
func summarize(xs []float64, want float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct := tailPercentile(len(s), want)
	return dist{N: len(s), P50: median(s), Tail: percentile(s, pct), TailPct: pct}
}

// rounds is how many equal parts a run's measurement is split into. The
// gated median is taken over every sample of the run: on a machine whose
// speed drifts, it spread less from run to run than the median of
// per-round medians. The per-round medians go into the run's notes, to
// tell drift within a run from drift between runs.
const rounds = 5

// series collects one operation class's latencies (ms) by round.
type series [rounds][]float64

func (s *series) add(round int, v float64) {
	round = min(max(round, 0), rounds-1)
	s[round] = append(s[round], v)
}

// all returns every sample.
func (s *series) all() []float64 {
	var out []float64
	for _, r := range s {
		out = append(out, r...)
	}
	return out
}

// roundP50s returns the median of each round that has samples.
func (s *series) roundP50s() []float64 {
	var per []float64
	for _, r := range s {
		if len(r) > 0 {
			per = append(per, median(r))
		}
	}
	return per
}

// p50 is the median of every sample.
func (s *series) p50() float64 { return median(s.all()) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
