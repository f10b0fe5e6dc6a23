package main

import (
	"context"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestSeedReproducesSchedule(t *testing.T) {
	gen := func(seed int64) ([]time.Duration, []uint64) {
		rng := rand.New(rand.NewSource(seed))
		sched := poissonSchedule(rng, 300, 10*time.Second)
		return sched, sampleSequence(rng, 512, len(sched))
	}
	s1, ids1 := gen(7)
	s2, ids2 := gen(7)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(ids1, ids2) {
		t.Fatal("the same seed gave different schedules")
	}
	s3, ids3 := gen(8)
	if reflect.DeepEqual(s1, s3) || reflect.DeepEqual(ids1, ids3) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 3000 expected arrivals; a Poisson count is within ±5σ ≈ ±275.
	if n := len(s1); n < 2725 || n > 3275 {
		t.Fatalf("%d arrivals in 10s at 300/s", n)
	}
	for i := 1; i < len(s1); i++ {
		if s1[i] < s1[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
}

func TestSampleSequenceVisitsEverySampleEqually(t *testing.T) {
	ids := sampleSequence(rand.New(rand.NewSource(1)), 10, 35)
	counts := make([]int, 10)
	for _, id := range ids {
		counts[id]++
	}
	for i, c := range counts {
		if c < 3 || c > 4 {
			t.Fatalf("sample %d drawn %d times in 35 draws over 10 samples", i, c)
		}
	}
}

// TestOpenLoopTimesFromIntendedSend stalls the only worker: requests
// queued behind the stall must carry the stall in their latency, and
// the generator must still issue them on time.
func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	sched := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	var calls atomic.Int32
	outs, late := openLoop(context.Background(), sched, []uint64{0, 1, 2}, 1, func(_ context.Context, a arrival) outcome {
		if calls.Add(1) == 1 {
			time.Sleep(200 * time.Millisecond)
		}
		return outcome{latency: time.Since(a.due), ok: true}
	})
	for i, o := range outs {
		if o.latency < 190*time.Millisecond {
			t.Errorf("request %d latency %v: the stall ahead of it is missing", i, o.latency)
		}
	}
	for i, l := range late {
		if l > 100*time.Millisecond {
			t.Errorf("request %d issued %v late: the generator waited on the stalled worker", i, l)
		}
	}
}
