package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/metrics"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// EdgeConfig controls the edge node.
type EdgeConfig struct {
	// CloudTimeout bounds the whole edge→cloud escalation of a sample
	// that misses the edge exit, including any failover retries across
	// cloud replicas — the budget must stay below the gateway's
	// EdgeTimeout or the downstream tier gives up before the edge can
	// answer (or fall back). A replica that dies fast leaves the rest of
	// the budget to the retry; one that hangs consumes it, and the
	// session falls back while fencing removes the replica for later
	// sessions.
	CloudTimeout time.Duration
	// CloudFallback, when true, answers an escalated sample with the
	// edge's own (unconfident) classification if the cloud round trip
	// fails, instead of aborting the session — the serving system keeps
	// answering at reduced accuracy while the WAN path is down.
	CloudFallback bool
}

// DefaultEdgeConfig returns sensible defaults: a 5 s cloud round trip
// bound and best-effort fallback to the edge exit when the cloud is
// unreachable.
func DefaultEdgeConfig() EdgeConfig {
	return EdgeConfig{CloudTimeout: 5 * time.Second, CloudFallback: true}
}

// Edge is the middle tier of a three-tier hierarchy (Fig. 2 configs
// d/e): it receives the gateway's Escalation — the hard samples' device
// feature maps — aggregates them, runs the edge ConvP section and exit
// head, answers confident samples immediately (ExitEdge), and escalates
// only the remaining samples' edge feature maps to the cloud in an
// Escalation of its own (§III-C staged escalation, middle stage).
//
// Every Escalation is self-contained and answered with one ResultBatch
// under its session ID, so one gateway connection carries any number of
// interleaved sessions with no per-session state between frames, and
// all sessions share one multiplexed link per cloud replica. The model
// is frozen (read-only), so sessions classify in parallel goroutines.
type Edge struct {
	node

	model *core.Model
	cfg   EdgeConfig

	cloud *ReplicaPool // nil until ConnectCloud

	// Meter accumulates the edge→cloud hop's Eq. (1)-style payload
	// bytes under "cloud-upload".
	Meter *metrics.CommMeter

	// nextUpstream numbers the edge's own cloud-pool sessions.
	// Downstream (gateway-assigned) session IDs are only unique per
	// gateway connection, and every connection shares the one cloud
	// replica pool — reusing them there would collide across gateways
	// and misroute verdicts.
	nextUpstream atomic.Uint64
}

// NewEdge constructs the edge node around a trained edge-tier model.
func NewEdge(model *core.Model, cfg EdgeConfig, logger *slog.Logger) (*Edge, error) {
	if !model.Cfg.UseEdge {
		return nil, fmt.Errorf("cluster: edge node needs a model built with UseEdge")
	}
	if logger == nil {
		logger = slog.Default()
	}
	if cfg.CloudTimeout <= 0 {
		cfg.CloudTimeout = DefaultEdgeConfig().CloudTimeout
	}
	e := &Edge{model: model, cfg: cfg, Meter: metrics.NewCommMeter()}
	e.init("edge", logger.With("node", "edge"), newModelRegistry(model, 1), e.serve)
	e.onClose = func() {
		if e.cloud != nil {
			e.cloud.close()
		}
	}
	return e, nil
}

// ConnectCloud dials the upstream cloud replicas and pools them: edge
// escalations load-balance across healthy cloud replicas and retry on
// another replica when one dies mid-session. Sessions escalated before
// (or without) a cloud connection fail over per EdgeConfig.CloudFallback.
// The context bounds connection setup only.
func (e *Edge) ConnectCloud(ctx context.Context, tr transport.Transport, addrs ...string) error {
	pool, err := newReplicaPool(ctx, wire.ExitCloud, tr, addrs, e.logger)
	if err != nil {
		return fmt.Errorf("cluster: edge dial cloud: %w", err)
	}
	e.cloud = pool
	return nil
}

// serve answers one gateway Escalation. The session computes on the
// model its version pin resolved to, even if the node's active version
// flips meanwhile.
func (e *Edge) serve(send func(wire.Message) error, msg wire.Message) {
	m, ok := msg.(*wire.Escalation)
	if !ok {
		_ = send(&wire.Error{Session: sessionOf(msg), Code: 400, Msg: fmt.Sprintf("expected Escalation, got %v", msg.MsgType())})
		return
	}
	model, _, err := e.reg.resolve(m.ModelVersion)
	if err != nil {
		_ = send(&wire.Error{Session: m.Session, Code: 426, Msg: err.Error()})
		return
	}
	feats, err := unpackEscalation(model, wire.ExitEdge, m, e.pool)
	if err != nil {
		_ = send(&wire.Error{Session: m.Session, Code: 400, Msg: err.Error()})
		return
	}
	e.classify(send, model, m, feats)
}

// classify runs the edge stage for one escalation: samples sharing a
// device mask aggregate and run the edge section in one forward pass,
// confident samples exit here (ExitEdge), and only the hard remainder
// rides a single Escalation to the cloud — the staged partial exit
// that keeps upstream hops small. The whole escalation answers with one
// ResultBatch in the frame's sample order.
func (e *Edge) classify(send func(wire.Message) error, model *core.Model, esc *wire.Escalation, feats []*tensor.Tensor) {
	n := len(esc.SampleIDs)
	cfg := model.Cfg
	eh, ew := cfg.FeatureH()/2, cfg.FeatureW()/2
	edgeFeats := e.pool.GetDirty(n, cfg.EdgeFilters, eh, ew)
	defer e.pool.Put(edgeFeats)
	verdicts := make([]wire.BatchVerdict, n)
	var hard []int
	for _, grp := range groupByMask(esc.Masks, cfg.Devices) {
		sel := selectGroup(feats, grp.indices, n, e.pool)
		edgeFeat, edgeLogits := model.EdgeForwardPooled(sel, grp.present, e.pool)
		releaseGroup(feats, sel, e.pool)
		probs := nn.Softmax(edgeLogits)
		e.pool.Put(edgeLogits)
		for k, idx := range grp.indices {
			copy(edgeFeats.Sample(idx), edgeFeat.Sample(k))
			verdicts[idx] = verdictRow(probs, k, esc.SampleIDs[idx], wire.ExitEdge)
		}
		e.pool.Put(edgeFeat)
	}
	releaseAll(feats, e.pool)
	// The first relayed threshold is this tier's exit criterion; an empty
	// list means the edge never exits and always escalates.
	for i, v := range verdicts {
		confident := len(esc.Thresholds) > 0 &&
			nn.NormalizedEntropy(v.Probs) <= esc.Thresholds[0]
		if !confident {
			hard = append(hard, i)
		}
	}
	if len(hard) > 0 {
		cloudVerdicts, err := e.escalate(model, esc, hard, edgeFeats)
		if err != nil && !e.cfg.CloudFallback {
			_ = send(&wire.Error{Session: esc.Session, Code: 503, Msg: fmt.Sprintf("cloud escalation failed: %v", err)})
			return
		}
		if err != nil {
			// Degrade rather than fail: the hard samples keep the edge's
			// own best-effort verdicts while the cloud is down.
			e.logger.Warn("cloud escalation failed; answering at the edge", "samples", len(hard), "err", err)
		} else {
			for k, idx := range hard {
				verdicts[idx] = cloudVerdicts[k]
			}
		}
	}
	if err := send(&wire.ResultBatch{Session: esc.Session, Verdicts: verdicts}); err != nil {
		e.logger.Debug("edge verdict failed", "session", esc.Session, "err", err)
	}
}

// escalate packs the hard samples' edge feature rows into one
// Escalation — one map per sample, every mask 1, no thresholds, since
// the cloud always classifies — forwards it to a pool-scheduled cloud
// replica under a fresh edge-owned session ID and returns the cloud's
// verdicts in hard-index order.
func (e *Edge) escalate(model *core.Model, esc *wire.Escalation, hard []int, edgeFeats *tensor.Tensor) ([]wire.BatchVerdict, error) {
	if e.cloud == nil {
		return nil, fmt.Errorf("edge has no cloud connection")
	}
	upSession := e.nextUpstream.Add(1)
	hardIDs := make([]uint64, len(hard))
	masks := make([]uint16, len(hard))
	sb := (edgeFeats.Size()/edgeFeats.Dim(0) + 7) / 8
	bits := make([]byte, len(hard)*sb)
	for k, idx := range hard {
		hardIDs[k] = esc.SampleIDs[idx]
		masks[k] = 1
		model.PackFeatureSampleInto(bits[k*sb:(k+1)*sb], edgeFeats, idx)
	}
	msg := &wire.Escalation{
		Session:      upSession,
		ModelVersion: esc.ModelVersion,
		Devices:      1,
		F:            uint16(edgeFeats.Dim(1)),
		H:            uint16(edgeFeats.Dim(2)),
		W:            uint16(edgeFeats.Dim(3)),
		SampleIDs:    hardIDs,
		Masks:        masks,
		Bits:         bits,
	}
	e.Meter.Add("cloud-upload", int64(len(bits)))
	// One overall budget for pick + send + wait + any failover retries,
	// so N hung replicas cannot stack N full timeouts (see CloudTimeout).
	ctx, cancel := context.WithTimeout(context.Background(), e.cfg.CloudTimeout)
	defer cancel()
	reply, err := e.cloud.relay(ctx, upSession, e.cfg.CloudTimeout, msg)
	if err != nil {
		return nil, err
	}
	verdicts, err := upstreamVerdicts(reply, hardIDs)
	if err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}
	return verdicts, nil
}
