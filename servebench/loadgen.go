package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"github.com/ddnn/ddnn-go/internal/wire"
)

// poissonSchedule returns the arrival offsets of a Poisson process at
// rate per second over d: exponential gaps drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// sampleSequence returns n sample ids drawn from [0, split) as a seeded
// permutation repeated: every sample is asked for equally often, so
// exit shares do not wander with which samples a run happened to draw.
func sampleSequence(rng *rand.Rand, split, n int) []uint64 {
	out := make([]uint64, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(split) {
			if len(out) == n {
				break
			}
			out = append(out, uint64(i))
		}
	}
	return out
}

// arrival is one request the generator issues.
type arrival struct {
	seq      int
	sampleID uint64
	due      time.Time // intended send time
}

// outcome is one classified sample. Latency runs from the request's
// intended send time; a failed sample has ok false.
type outcome struct {
	latency time.Duration
	exit    wire.ExitPoint
	ok      bool
}

// openLoop issues the schedule from one goroutine, each request when it
// is due whatever the system's state, onto a queue drained by workers
// goroutines (the connections or callers). It returns every outcome in
// issue order and how late the generator itself was for each send.
func openLoop(ctx context.Context, sched []time.Duration, ids []uint64, workers int, do func(context.Context, arrival) outcome) ([]outcome, []time.Duration) {
	// Sized to the whole schedule so the generator never blocks on a
	// backlog: a backlog must show as latency, not as lateness.
	queue := make(chan arrival, len(sched))
	outs := make([]outcome, len(sched))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				outs[a.seq] = do(ctx, a)
			}
		}()
	}
	late := make([]time.Duration, len(sched))
	start := time.Now()
	for i, at := range sched {
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due)
		queue <- arrival{seq: i, sampleID: ids[i], due: due}
	}
	close(queue)
	wg.Wait()
	return outs, late
}

// closedLoop calls do back to back from one caller until d has passed
// and returns every outcome.
func closedLoop(ctx context.Context, d time.Duration, do func(context.Context, int) []outcome) []outcome {
	var outs []outcome
	end := time.Now().Add(d)
	for call := 0; time.Now().Before(end); call++ {
		outs = append(outs, do(ctx, call)...)
	}
	return outs
}
