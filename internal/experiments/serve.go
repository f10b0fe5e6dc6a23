package experiments

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// ServingPoint is one row of the serving-throughput comparison: sustained
// classification throughput at a given number of concurrent sessions,
// plus where the samples exited.
type ServingPoint struct {
	// Concurrency is the number of in-flight sessions.
	Concurrency int
	// Batch is the micro-batch size; 1 means one-sample sessions.
	Batch int
	// Samples classified during the measurement.
	Samples int
	// Elapsed wall-clock time.
	Elapsed time.Duration
	// Throughput in samples per second.
	Throughput float64
	// Speedup relative to the single-flight baseline (first row).
	Speedup float64
	// ExitCounts is the number of samples classified at each pipeline
	// stage, in Exits order.
	ExitCounts []int
}

// ServingReport is a full serving sweep over one hierarchy: the
// concurrency points plus the per-sample communication measured on each
// hop of the escalation path.
type ServingReport struct {
	// Exits lists the pipeline's exit points, lowest tier first.
	Exits []wire.ExitPoint
	// Thresholds are the entropy thresholds per exit (final exit 1).
	Thresholds []float64
	// Points is the concurrency sweep.
	Points []ServingPoint
	// SummaryBytes is the measured per-device, per-sample class-summary
	// payload on the device→gateway hop (Eq. 1 first term).
	SummaryBytes float64
	// FeatureBytes is the measured per-device, per-sample feature-upload
	// payload relayed up the first hop for escalated samples (Eq. 1
	// second term).
	FeatureBytes float64
	// EdgeHopBytes is the measured per-sample payload on the edge→cloud
	// hop — the bit-packed edge feature maps of samples that missed both
	// lower exits. Zero for two-tier hierarchies.
	EdgeHopBytes float64
	// WireUpBytes and WireDownBytes are the measured per-sample wire
	// traffic on the device links including protocol framing: up is the
	// device→gateway direction (summaries, feature uploads), down the
	// gateway→device direction (capture and feature requests). Both are
	// taken from the last sweep point, whose batch size amortizes
	// framing the most.
	WireUpBytes   float64
	WireDownBytes float64
}

// ServingThroughput measures multi-session serving throughput of the
// two-tier MP-CC DDNN on a live in-process cluster at each (concurrency,
// micro-batch) point, quantifying what the Engine's session multiplexing
// and cross-session batching buy over the old single-flight gateway.
// Connections carry the §IV-B link profiles (wireless device uplinks,
// WAN cloud path), so concurrent sessions overlap link latency exactly
// as a deployed gateway would. The first level should be 1 (the
// lock-step baseline); speedups are reported relative to it. batches
// lists micro-batch sizes to sweep per level (nil means per-sample
// only); batch sizes above 1 coalesce whole chunks into one session per
// tier.
func (r *Runner) ServingThroughput(threshold float64, samples int, levels, batches []int) (*ServingReport, error) {
	m, err := r.model(agg.MP, agg.CC, r.opts.Model.DeviceFilters)
	if err != nil {
		return nil, err
	}
	gcfg := cluster.DefaultGatewayConfig()
	gcfg.Threshold = threshold
	return r.servingSweep(m, gcfg, samples, levels, batches)
}

// EdgeServingThroughput is ServingThroughput over the three-tier
// device→edge→cloud hierarchy (Fig. 2 config e): the gateway↔edge hop
// carries the nearby-edge profile and the edge↔cloud hop the WAN
// profile, so the sweep reports per-exit fractions for all three exits
// and the communication cost of both hops.
func (r *Runner) EdgeServingThroughput(localT, edgeT float64, samples int, levels, batches []int) (*ServingReport, error) {
	m, err := r.edgeModel()
	if err != nil {
		return nil, err
	}
	gcfg := cluster.DefaultGatewayConfig()
	gcfg.Threshold = localT
	gcfg.EdgeThreshold = edgeT
	return r.servingSweep(m, gcfg, samples, levels, batches)
}

// servingSweep runs the (batch × concurrency) sweep on an in-process
// cluster with the §IV-B link profiles for every hop the model's
// hierarchy has.
func (r *Runner) servingSweep(m *core.Model, gcfg cluster.GatewayConfig, samples int, levels, batches []int) (*ServingReport, error) {
	if samples <= 0 || samples > r.test.Len() {
		samples = r.test.Len()
	}
	if len(batches) == 0 {
		batches = []int{1}
	}
	quiet := slog.New(slog.NewTextHandler(discardWriter{}, &slog.HandlerOptions{Level: slog.LevelError}))

	pipeline := cluster.BuildPipeline(m.Cfg, gcfg.Threshold, gcfg.EdgeThreshold)
	rep := &ServingReport{Exits: pipeline.Exits()}
	for _, s := range pipeline {
		rep.Thresholds = append(rep.Thresholds, s.Threshold)
	}
	exitIndex := make(map[wire.ExitPoint]int, len(rep.Exits))
	for i, e := range rep.Exits {
		exitIndex[e] = i
	}

	for _, batch := range batches {
		for _, level := range levels {
			eng, err := cluster.NewEngine(m, r.test, cluster.EngineConfig{
				Gateway:        gcfg,
				MaxConcurrency: level,
				Batch:          cluster.BatchConfig{MaxBatch: batch},
				Logger:         quiet,
				DeviceLink:     transport.DeviceToGateway,
				EdgeLink:       transport.GatewayToEdge,
				CloudLink:      transport.GatewayToCloud,
			}, transport.NewMem())
			if err != nil {
				return nil, fmt.Errorf("experiments: start engine: %w", err)
			}
			ids := make([]uint64, samples)
			for i := range ids {
				ids[i] = uint64(i)
			}
			start := time.Now()
			results, err := eng.ClassifyBatch(context.Background(), ids)
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("experiments: serving at concurrency %d batch %d: %w", level, batch, err)
			}
			elapsed := time.Since(start)

			p := ServingPoint{
				Concurrency: level,
				Batch:       batch,
				Samples:     samples,
				Elapsed:     elapsed,
				Throughput:  float64(samples) / elapsed.Seconds(),
				ExitCounts:  make([]int, len(rep.Exits)),
			}
			for _, res := range results {
				if i, ok := exitIndex[res.Exit]; ok {
					p.ExitCounts[i]++
				}
			}
			if len(rep.Points) == 0 {
				p.Speedup = 1
			} else {
				p.Speedup = p.Throughput / rep.Points[0].Throughput
			}
			rep.Points = append(rep.Points, p)

			// Per-hop communication, measured on the last point's run
			// (the exit decisions, and hence the Eq. (1) payloads, are
			// identical at every level and batch size — the parity
			// contract — while wire framing shrinks as batches grow).
			devices := float64(m.Cfg.Devices)
			n := float64(samples)
			gw := eng.Gateway()
			rep.SummaryBytes = float64(gw.Meter.Get("local-summary")) / (devices * n)
			feat := gw.Meter.Get("edge-upload") + gw.Meter.Get("cloud-upload")
			rep.FeatureBytes = float64(feat) / (devices * n)
			if edge := eng.Edge(); edge != nil {
				rep.EdgeHopBytes = float64(edge.Meter.Get("cloud-upload")) / n
			}
			rep.WireUpBytes = float64(gw.WireBytesUp()) / n
			rep.WireDownBytes = float64(gw.WireBytesDown()) / n
			eng.Close()
		}
	}
	return rep, nil
}

// FormatServingReport renders the (batch × concurrency) sweep with
// per-exit fractions and the per-hop communication summary.
func FormatServingReport(rep *ServingReport) string {
	var sb strings.Builder
	sb.WriteString("Concurrency  Batch  Samples    Elapsed  Samples/s  Speedup")
	for _, e := range rep.Exits {
		fmt.Fprintf(&sb, "  %%%s", e)
	}
	sb.WriteString("\n")
	for _, p := range rep.Points {
		fmt.Fprintf(&sb, "%11d %6d %8d %10v %10.1f %7.2fx",
			p.Concurrency, p.Batch, p.Samples, p.Elapsed.Round(time.Millisecond), p.Throughput, p.Speedup)
		for _, c := range p.ExitCounts {
			fmt.Fprintf(&sb, " %6.1f", 100*float64(c)/float64(p.Samples))
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "hop 1 (device uplink): %.1f B/sample/device summaries + %.1f B/sample/device features\n",
		rep.SummaryBytes, rep.FeatureBytes)
	if len(rep.Exits) > 2 {
		fmt.Fprintf(&sb, "hop 2 (edge→cloud):    %.1f B/sample escalated edge features\n", rep.EdgeHopBytes)
	}
	fmt.Fprintf(&sb, "device wire traffic:   %.1f B/sample up, %.1f B/sample down (incl. framing, last point)\n",
		rep.WireUpBytes, rep.WireDownBytes)
	return sb.String()
}
