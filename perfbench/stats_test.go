package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99},
		{5000, 99},
		{450, 100 * (1 - 10.0/450)},
		{100, 90},
		{20, 50},
		{15, 50}, // too few for anything above the median
		{1, 50},
	} {
		if got := tailPercentile(c.n, 99); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The reported tail always has at least ten samples above it once there
// are enough samples for a percentile above the median.
func TestTailLeavesTenBeyond(t *testing.T) {
	for n := 20; n <= 2000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // descending: summarize must sort
		}
		d := summarize(xs, 99)
		beyond := 0
		for _, x := range xs {
			if x > d.Tail {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: p%.2f = %v leaves %d samples beyond", n, d.TailPct, d.Tail, beyond)
		}
		if n >= 1000 && d.TailPct != 99 {
			t.Fatalf("n=%d: reported p%.2f, want p99", n, d.TailPct)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// p50 is the median of every sample; roundP50s keeps each round's.
func TestSeries(t *testing.T) {
	var s series
	for i := 0; i < 10; i++ {
		s.add(0, 100)
	}
	for r := 1; r < rounds; r++ {
		for i := 1; i <= 9; i++ {
			s.add(r, float64(i))
		}
	}
	if got := s.p50(); got != 6 {
		t.Errorf("p50 = %v, want 6", got)
	}
	if got := s.roundP50s(); len(got) != rounds || got[0] != 100 || got[1] != 5 {
		t.Errorf("roundP50s = %v, want [100 5 5 ...]", got)
	}
	if n := len(s.all()); n != 10+9*(rounds-1) {
		t.Errorf("all() has %d samples", n)
	}
}
