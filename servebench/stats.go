package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// with fewer, the value is one or two outliers, not a percentile.
const minBeyond = 10

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the nearest-rank q-quantile of the values (0 for
// none). Failed requests enter as +Inf, so they rank above every limit.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// median is the 0.5 quantile.
func median(values []float64) float64 { return quantile(values, 0.5) }

// tailPercent is the percentile to report as a run's tail: 99 when at
// least minBeyond samples lie above it (n >= 1000), otherwise the
// highest whole percentile that still leaves minBeyond samples above
// it. It returns 0 when even the median has too few samples beyond it.
func tailPercent(n int) int {
	if n <= 2*minBeyond {
		return 0
	}
	p := 100 * (n - minBeyond) / n
	if p > 99 {
		p = 99
	}
	for p >= 50 && n-int(math.Ceil(float64(p)*float64(n)/100)) < minBeyond {
		p--
	}
	if p < 50 {
		return 0
	}
	return p
}

// tail reports the tail percentile of the values and its label, e.g.
// "p99 of 3021" or "p97 of 412". With too few samples for any
// percentile above the median it reports the median, labelled so.
func tail(values []float64) (float64, string) {
	p := tailPercent(len(values))
	if p == 0 {
		return median(values), fmt.Sprintf("p50 of %d (too few samples for a tail)", len(values))
	}
	return quantile(values, float64(p)/100), fmt.Sprintf("p%d of %d", p, len(values))
}
