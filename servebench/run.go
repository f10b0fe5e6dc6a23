package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/ddnn/ddnn-go/internal/wire"
)

const (
	// setupRepeats is how many times a run sets up; setup_s is the
	// median, so one slow set-up does not decide it.
	setupRepeats = 3
	// warmupFor lets pools, connections and the collector settle before
	// the measured window; its answers are checked too.
	warmupFor = time.Second
	// warmupSalt gives the warm-up its own schedule.
	warmupSalt = 0x5eed
)

// window is one measured stretch of load.
type window struct {
	outs    []outcome
	late    []time.Duration
	elapsed time.Duration
	bytes   [numHops]int64 // per-hop deltas
	writes  [numHops]int64
	// Process-wide deltas of runtime.MemStats Mallocs, TotalAlloc, NumGC.
	mallocs, allocBytes uint64
	gcs                 uint32
	// byteFailures counts device-hop byte-count mismatches.
	byteFailures int
}

// counters is a snapshot of the hop counters and the gateway's own
// device-link byte count.
type counters struct {
	bytes, writes [numHops]int64
	gateway       int64
}

func (e *env) counters() counters {
	var c counters
	c.bytes, c.writes = e.tr.snapshot()
	c.gateway = e.gatewayWireBytes()
	return c
}

// checkBytes checks that the device hop carried exactly the bytes the
// gateway counted since before, and returns the counters it compared.
func (e *env) checkBytes(g *gate, before counters) (counters, bool) {
	after := e.counters()
	if after.bytes[hopDevice]-before.bytes[hopDevice] != after.gateway-before.gateway {
		// Every answer is in, but a reader may not have returned from
		// its last Read yet: the two counters sit in one call chain.
		time.Sleep(50 * time.Millisecond)
		after = e.counters()
	}
	ok := g.checkDeviceBytes(after.bytes[hopDevice]-before.bytes[hopDevice], after.gateway-before.gateway)
	return after, ok
}

// measure drives the workload for d from the seed's schedule, checks
// every answer and the device-hop byte count, and returns the window.
// With a recorder, the window is traced.
func (e *env) measure(ctx context.Context, g *gate, rec *recorder, seed int64, d time.Duration) window {
	rng := rand.New(rand.NewSource(seed))
	var win window
	before := e.counters()
	// Start every window from a collected heap, so the window's garbage
	// collections fall at the same points on every run instead of
	// wherever set-up left the collector.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if e.w.rate > 0 {
		sched := poissonSchedule(rng, e.w.rate, d)
		ids := sampleSequence(rng, e.test.Len(), len(sched))
		do := func(ctx context.Context, a arrival) outcome { return e.doClassify(ctx, g, rec, a) }
		if e.w.viaHTTP {
			do = func(ctx context.Context, a arrival) outcome { return e.doHTTP(ctx, g, rec, a) }
		}
		win.outs, win.late = openLoop(ctx, sched, ids, e.w.senders, do)
	} else {
		ids := sampleSequence(rng, e.test.Len(), e.test.Len())
		win.outs = closedLoop(ctx, d, func(ctx context.Context, call int) []outcome { return e.doBatch(ctx, g, rec, call, ids) })
	}
	win.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	win.mallocs = m1.Mallocs - m0.Mallocs
	win.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	win.gcs = m1.NumGC - m0.NumGC

	after, ok := e.checkBytes(g, before)
	if !ok {
		win.byteFailures++
	}
	for h := range win.bytes {
		win.bytes[h] = after.bytes[h] - before.bytes[h]
		win.writes[h] = after.writes[h] - before.writes[h]
	}
	return win
}

// tally counts the measured windows' samples and failures: a wrong or
// failed answer and a byte-count mismatch each count as one failure,
// and any failure the gate saw, warm-up included, fails the run.
func tally(g *gate, wins ...window) (attempted, failed int, correct bool) {
	for _, win := range wins {
		attempted += len(win.outs)
		failed += len(win.outs) - completed(win) + win.byteFailures
	}
	return attempted, failed, failed == 0 && g.count() == 0
}

// result is what one benchmark run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	failures  []string
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // sample count, percentile label
}

// runBench sets up the workload setupRepeats times, measures one
// untraced window of d and returns the end-to-end metrics. A traced run
// instead measures an untraced and a traced window of the same schedule,
// d/2 each, and returns the per-layer metrics.
func runBench(w workload, seed int64, d time.Duration, traced bool, sc setupConfig, tracePath string, log io.Writer) (*result, error) {
	ctx := context.Background()
	g := &gate{}
	goroutines0 := runtime.NumGoroutine()
	var setupS []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		ne, err := setup(w, seed, sc)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		e = ne
	}
	fmt.Fprintf(log, "set-up times (s): %.3f\n", setupS)
	e.ref = stagedReference(e.model, e.test)

	e.measure(ctx, g, nil, seed^warmupSalt, warmupFor)
	if traced {
		d /= 2
	}
	plain := e.measure(ctx, g, nil, seed, d)
	var tw window
	var rec *recorder
	if traced {
		rec = newRecorder()
		e.trace(rec)
		tw = e.measure(ctx, g, rec, seed, d)
		e.trace(nil)
	}
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	leaked := settleGoroutines(goroutines0)

	res := &result{failures: g.first}
	if !traced {
		res.attempted, res.failed, res.correct = tally(g, plain)
		res.metrics = endToEnd(plain, median(setupS), res.failed)
		return res, nil
	}
	res.attempted, res.failed, res.correct = tally(g, plain, tw)
	if err := writeSpans(tracePath, rec.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "wrote %d spans to %s\n", len(rec.spans), tracePath)
	res.metrics = perLayer(plain, tw, rec, e, leaked)
	return res, nil
}

// settleGoroutines waits up to 2s for the goroutines a closed run
// started to exit and returns how many are left above the baseline.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - baseline
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// latencies splits a window's sample latencies (ms; failures +Inf).
func latencies(win window) (all, local, escalated []float64) {
	for _, o := range win.outs {
		if !o.ok {
			all = append(all, math.Inf(1))
			continue
		}
		v := ms(o.latency)
		all = append(all, v)
		if o.exit == wire.ExitLocal {
			local = append(local, v)
		} else {
			escalated = append(escalated, v)
		}
	}
	return all, local, escalated
}

// completed counts a window's successful samples.
func completed(win window) int {
	n := 0
	for _, o := range win.outs {
		if o.ok {
			n++
		}
	}
	return n
}

func throughput(win window) float64 {
	return float64(completed(win)) / win.elapsed.Seconds()
}

// perSample divides a window total by its sample count.
func perSample(v float64, win window) float64 {
	if len(win.outs) == 0 {
		return 0
	}
	return v / float64(len(win.outs))
}

// endToEnd derives the untraced window's end-to-end metrics.
func endToEnd(win window, setupS float64, failed int) []metric {
	all, local, escalated := latencies(win)
	n := len(win.outs)
	p99, label := tail(all)
	var wire int64
	for _, b := range win.bytes {
		wire += b
	}
	return []metric{
		{"setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups", setupRepeats)},
		{"throughput_sps", "1/s", throughput(win), fmt.Sprintf("%d samples in %.2fs", completed(win), win.elapsed.Seconds())},
		{"latency_p50_ms", "ms", median(all), fmt.Sprintf("n=%d", n)},
		{"latency_p99_ms", "ms", p99, label},
		{"local_exit_p50_ms", "ms", median(local), fmt.Sprintf("n=%d", len(local))},
		{"escalated_p50_ms", "ms", median(escalated), fmt.Sprintf("n=%d", len(escalated))},
		{"allocs_per_sample", "count", perSample(float64(win.mallocs), win), "process-wide, load generator included"},
		{"device_bytes_per_sample", "B", perSample(float64(win.bytes[hopDevice]), win), "framed, both directions"},
		{"upstream_bytes_per_sample", "B", perSample(float64(win.bytes[hopUpstream]), win), "framed, both directions"},
		{"edge_cloud_bytes_per_sample", "B", perSample(float64(win.bytes[hopEdgeCloud]), win), "framed, both directions; 0 without an edge tier"},
		{"wire_bytes_per_sample", "B", perSample(float64(wire), win), "all hops"},
		{"failed_frac", "1", float64(failed) / math.Max(1, float64(n)), fmt.Sprintf("%d of %d", failed, n)},
		{"max_rss_mb", "MB", maxRSSMB(), "peak, set-up included"},
	}
}

// perLayer derives the traced window's per-layer metrics and the
// tracing overhead against the untraced window of the same schedule.
func perLayer(plain, tw window, rec *recorder, e *env, leaked int) []metric {
	n := float64(len(tw.outs))
	var lateMs []float64
	for _, l := range tw.late {
		lateMs = append(lateMs, ms(l))
	}
	self := selfTimes(rec.spans)
	exits := map[wire.ExitPoint]float64{}
	for _, o := range tw.outs {
		if o.ok {
			exits[o.exit]++
		}
	}
	plainAll, _, _ := latencies(plain)
	traceAll, _, _ := latencies(tw)
	handlerTail, _ := tail(rec.handlerMs)
	localTail, _ := tail(rec.localMs)
	upTail, _ := tail(rec.upstreamMs)
	sessions := float64(len(rec.localMs))

	out := []metric{
		{"loadgen.late_p50_ms", "ms", median(lateMs), ""},
		{"loadgen.late_max_ms", "ms", quantile(lateMs, 1), ""},
		{"loadgen.self_p50_ms", "ms", median(self[spanRequest]), "request span minus its child"},
		{"api.handler_p50_ms", "ms", median(rec.handlerMs), ""},
		{"api.handler_p99_ms", "ms", handlerTail, ""},
		{"api.self_p50_ms", "ms", median(self[spanHandler]), "handler minus Classifier call"},
		{"api.non2xx", "count", float64(rec.non2xx), ""},
		{"api.shed", "count", float64(rec.shed), ""},
		{"cluster.call_p50_ms", "ms", median(rec.callMs), ""},
		{"cluster.collector_wait_p50_ms", "ms", median(rec.waitMs), "call minus Result.Latency"},
		{"cluster.samples_per_session", "count", n / math.Max(1, sessions), ""},
		{"cluster.local_stage_p50_ms", "ms", median(rec.localMs), ""},
		{"cluster.local_stage_p99_ms", "ms", localTail, ""},
		{"cluster.upstream_stage_p50_ms", "ms", median(rec.upstreamMs), ""},
		{"cluster.upstream_stage_p99_ms", "ms", upTail, ""},
		{"cluster.exit_local_frac", "1", exits[wire.ExitLocal] / n, ""},
		{"cluster.exit_edge_frac", "1", exits[wire.ExitEdge] / n, ""},
		{"cluster.exit_cloud_frac", "1", exits[wire.ExitCloud] / n, ""},
	}
	for h := hop(0); h < numHops; h++ {
		name := "transport." + hopNames[h]
		out = append(out,
			metric{name + ".bytes_per_sample", "B", float64(tw.bytes[h]) / n, ""},
			metric{name + ".writes_per_sample", "count", float64(tw.writes[h]) / n, ""},
			metric{name + ".write_p50_us", "us", median(e.tr.takeWriteTimes(h)), ""},
		)
	}
	for _, timings := range []map[string]float64{coreTimings(e.model, e.test), kernelTimings(e.model.Cfg)} {
		for _, name := range sortedKeys(timings) {
			out = append(out, metric{name, "us", timings[name], "in isolation"})
		}
	}
	out = append(out,
		metric{"runtime.gc_per_ksample", "count", 1000 * float64(tw.gcs) / n, ""},
		metric{"runtime.alloc_bytes_per_sample", "B", float64(tw.allocBytes) / n, ""},
		metric{"runtime.goroutines_leaked", "count", float64(leaked), "after Close, against before set-up"},
		metric{"trace.overhead_latency_p50_ms", "ms", median(traceAll) - median(plainAll), "traced minus untraced"},
		metric{"trace.overhead_throughput_sps", "1/s", throughput(tw) - throughput(plain), "traced minus untraced"},
	)
	return out
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
