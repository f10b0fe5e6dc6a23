// Command servebench is the repository's end-to-end serving benchmark.
// It builds the serving stack in one process from the packages' public
// functions — cluster.NewEngine over a byte-counting in-memory
// transport, the api front door on a loopback listener — drives one
// named workload against it, checks every answer against core's staged
// reference, and prints every metric with its unit and sample count.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also measures a traced window of the same schedule and reports the
// per-layer metrics, the tracing overhead, and writes the spans to
// .bench_build/traces/. Run it from the repository root:
//
//	bash servebench/run.sh --workload serve-http --seed 1 --seconds 15 --trace 0
//
// See servebench/README.md for the workloads, the metrics and which
// layer metric each end-to-end metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// workload is one traffic mix against one serving configuration.
type workload struct {
	name    string
	edge    bool    // three-tier model: device → edge → cloud (MP-CC-CC)
	viaHTTP bool    // requests go through the api front door
	batch   int     // engine micro-batch cap; 0 runs per-sample sessions
	links   bool    // §IV-B device and WAN link profiles
	rate    float64 // open-loop Poisson arrivals per second; 0 is a closed loop
	senders int     // keep-alive connections, or goroutines issuing calls
}

// workloads are the benchmark's traffic mixes; README.md says why each
// was chosen.
var workloads = []workload{
	// The front door as users hit it: batching with linger, two
	// connections, about half the knee (≈400 req/s on a 2-vCPU box).
	{name: "serve-http", viaHTTP: true, batch: 32, rate: 200, senders: 2},
	// Compute-bound batched three-tier path, one closed-loop caller.
	{name: "batch-edge", edge: true, batch: 32, senders: 1},
	// Per-sample sessions over the §IV-B links; twice the session
	// semaphore in callers, so the engine's own semaphore is what queues.
	{name: "sim-links", links: true, rate: 200, senders: 2 * maxConcurrency},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-http, batch-edge or sim-links")
	seed := fs.Int64("seed", 1, "seed of the served dataset, the arrival schedule and the sample ids")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: also measure a traced window and report the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "servebench: need --workload serve-http|batch-edge|sim-links, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	tracePath := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	d := time.Duration(*seconds * float64(time.Second))
	res, err := runBench(w, *seed, d, *trace == 1, benchSetup, tracePath, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "servebench: FAIL", f)
	}
	if !res.correct {
		return 1
	}
	return 0
}

// tableOnly metrics are printed in the table but left out of the JSON
// result, whose metrics must never read 0 and must repeat within their
// bounds across seeds: failed_frac is 0 on every passing run (the
// result's failed count carries it), the edge→cloud hop is absent from
// two-tier workloads (wire_bytes_per_sample carries it), and the p99 of
// a 4 ms request on a 2-vCPU VM follows the host's scheduling stalls
// more than the program (README.md has the figures).
var tableOnly = map[string]bool{"failed_frac": true, "edge_cloud_bytes_per_sample": true, "latency_p99_ms": true}

// report prints the metric table and, last, the JSON result line.
func report(out io.Writer, res *result) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric)
	for _, m := range res.metrics {
		fmt.Fprintf(out, "%-36s %14.4f %-5s %s\n", m.name, m.value, m.unit, m.note)
		if tableOnly[m.name] {
			continue
		}
		v := m.value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // failures rank above any limit
		}
		metrics[m.name] = jsonMetric{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
