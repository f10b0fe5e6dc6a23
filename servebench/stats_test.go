package main

import (
	"math"
	"testing"
)

func TestTailPercentKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5000, 99},
		{1000, 99}, // exactly 10 samples above p99
		{999, 98},
		{412, 97},
		{100, 90},
		{21, 52},
		{20, 0}, // even the median would leave fewer than 10 above it
		{0, 0},
	} {
		got := tailPercent(c.n)
		if got != c.want {
			t.Errorf("tailPercent(%d) = %d, want %d", c.n, got, c.want)
			continue
		}
		if got > 0 {
			beyond := c.n - int(math.Ceil(float64(got)*float64(c.n)/100))
			if beyond < minBeyond {
				t.Errorf("n=%d p%d leaves %d samples beyond, want >= %d", c.n, got, beyond, minBeyond)
			}
		}
	}
}

func TestTailLabelsThePercentileItReports(t *testing.T) {
	values := make([]float64, 412)
	for i := range values {
		values[i] = float64(i + 1)
	}
	v, label := tail(values)
	if label != "p97 of 412" || v != 400 {
		t.Fatalf("tail = %v %q, want 400 \"p97 of 412\"", v, label)
	}
	values = append(values, make([]float64, 1000)...)
	if _, label := tail(values); label != "p99 of 1412" {
		t.Fatalf("label = %q, want p99 of 1412", label)
	}
}

func TestFailuresRankAboveEveryLatency(t *testing.T) {
	values := []float64{1, 2, 3, math.Inf(1), math.Inf(1), math.Inf(1)}
	if got := median(values); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := quantile(values, 0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 = %v, want +Inf: a failed request misses any limit", got)
	}
}
