package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/metrics"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// GatewayConfig controls the local aggregator node.
type GatewayConfig struct {
	// Threshold is the local exit's normalized-entropy threshold T
	// (§III-D; the paper settles on 0.8).
	Threshold float64
	// EdgeThreshold is the edge exit's normalized-entropy threshold,
	// used only when the model has an edge tier. The gateway forwards
	// it with every escalation so the edge node stays policy-free.
	EdgeThreshold float64
	// DeviceTimeout bounds each device round trip; devices that miss it
	// are treated as absent for the sample (graceful degradation, §IV-G).
	// A context with an earlier deadline wins.
	DeviceTimeout time.Duration
	// CloudTimeout bounds each cloud escalation attempt (two-tier
	// hierarchies); a failover retry on another replica gets its own
	// budget, since nothing above the gateway is waiting on a shorter
	// clock.
	CloudTimeout time.Duration
	// EdgeTimeout bounds each gateway↔edge escalation attempt of a
	// three-tier hierarchy, including any cloud relay behind the edge;
	// as with CloudTimeout, a failover retry gets its own budget.
	EdgeTimeout time.Duration
	// MaxFailures marks a device as down after this many consecutive
	// timeouts, so later samples skip it immediately. Zero disables
	// sticky failure detection.
	MaxFailures int
}

// DefaultGatewayConfig returns sensible simulation defaults.
func DefaultGatewayConfig() GatewayConfig {
	return GatewayConfig{
		Threshold:     0.8,
		EdgeThreshold: 0.8,
		DeviceTimeout: 2 * time.Second,
		CloudTimeout:  5 * time.Second,
		EdgeTimeout:   7 * time.Second,
		MaxFailures:   3,
	}
}

// Result is the outcome of one distributed inference session.
type Result struct {
	// SampleID identifies the sample being classified.
	SampleID uint64
	// Class is the predicted class index.
	Class int
	// Exit names the tier that produced the verdict.
	Exit wire.ExitPoint
	// Probs holds the per-class probabilities.
	Probs []float32
	// Entropy is the normalized entropy of the local aggregate.
	Entropy float64
	// Present marks the devices that contributed to the sample.
	Present []bool
	// ConfigVersion is the topology config version the session pinned
	// when it started; the verdict is bit-identical to the staged
	// reference under that version's membership view.
	ConfigVersion uint64
	// ModelVersion is the model version the session pinned when it
	// started: every hop — device sections, edge, cloud — ran these
	// weights, even if a rolling reload flipped the fleet mid-session.
	ModelVersion uint64
	// Latency is the wall-clock duration of the session.
	Latency time.Duration
}

// Gateway is the local aggregator: it fans capture requests out to the
// devices, aggregates their exit summaries, applies the entropy-threshold
// exit rule of the pipeline's first stage, and escalates samples the
// local exit is not confident about to the next tier up — the edge tier
// of a three-tier hierarchy, or the cloud directly in a two-tier one.
// The upstream tier is a replica pool: escalations load-balance across
// its healthy replicas and fail over to another replica when one dies
// mid-session.
//
// Every classification is one session over a batch of n ≥ 1 samples;
// Classify is the batch of one. Classify and ClassifyBatch are safe for
// concurrent use: each call opens an independent session, tagged with a
// unique session ID, and the device and upstream links multiplex frames
// from all in-flight sessions. Only the per-device failure bookkeeping is
// shared, behind a short-lived mutex.
type Gateway struct {
	model    *core.Model
	reg      *modelRegistry
	cfg      GatewayConfig
	pipeline Pipeline
	logger   *slog.Logger
	tr       transport.Transport // retained for membership dial-backs

	devices  []*deviceLink
	upstream *ReplicaPool // edge tier for edge-tier models, cloud otherwise

	// pool recycles the sessions' exit-vector batches.
	pool *tensor.Pool

	nextSession atomic.Uint64

	// Meter accumulates Eq. (1) payload bytes by category
	// ("local-summary", plus "cloud-upload" or "edge-upload" for the
	// device feature maps relayed up the hierarchy's first hop).
	Meter *metrics.CommMeter
	// wireConns counts actual bytes on each device uplink including
	// framing, for comparison against the analytic model. Slot-indexed;
	// nil for absent slots. Guarded by stateMu.
	wireConns []*transport.CountingConn

	// instr holds the optional observability callbacks installed with
	// SetInstrumentation.
	instr instrumentation

	// stateMu guards the versioned topology state: deviceLink.link /
	// .failures / .down, wireConns, tenants, configVersion and closed.
	stateMu       sync.Mutex
	configVersion uint64
	tenants       map[string]tenantEntry
	closed        bool

	// registration is the registration plane's node, serving once
	// ServeRegistration starts it.
	registration node
}

// tenantEntry pairs a tenant's raw config with its resolved, validated
// pipeline so classify paths never rebuild it.
type tenantEntry struct {
	cfg      TenantConfig
	pipeline Pipeline
}

type deviceLink struct {
	index int
	// guarded by Gateway.stateMu:
	link     *link // nil while the slot is absent
	failures int
	down     bool
}

// NewGateway connects to the device nodes and the next tier up — the
// edge replicas for edge-tier models, the cloud replicas otherwise — and
// returns a ready gateway. upstreamAddrs lists the replicas of that one
// tier; sessions load-balance across them. The context bounds connection
// setup only; per-session deadlines come from the contexts passed to
// Classify.
//
// deviceAddrs may name fewer devices than the model has slots — or use
// empty strings for individual slots — to start with a partial device
// set: the unnamed slots begin absent and are admitted later through
// the registration plane (ServeRegistration) or AdmitDevice. More
// addresses than slots is a hard ErrDeviceSlotMismatch, since the extra
// devices could never appear in the presence mask.
func NewGateway(ctx context.Context, model *core.Model, cfg GatewayConfig, tr transport.Transport, deviceAddrs []string, upstreamAddrs []string, logger *slog.Logger) (*Gateway, error) {
	if logger == nil {
		logger = slog.Default()
	}
	if len(deviceAddrs) > model.Cfg.Devices {
		return nil, fmt.Errorf("cluster: model has %d device slots, got %d addresses: %w", model.Cfg.Devices, len(deviceAddrs), ErrDeviceSlotMismatch)
	}
	if model.Cfg.Devices > wire.MaxDevices {
		// The wire protocol's present-device masks are uint16 bitmasks;
		// a 17th device would silently alias bit 0 and corrupt every
		// escalation header, so such hierarchies are rejected up front.
		return nil, fmt.Errorf("cluster: model has %d devices: %w", model.Cfg.Devices, ErrTooManyDevices)
	}
	// Zero timeouts would otherwise expire instantly; an unset
	// GatewayConfig means "use the defaults", not "always time out".
	def := DefaultGatewayConfig()
	if cfg.DeviceTimeout <= 0 {
		cfg.DeviceTimeout = def.DeviceTimeout
	}
	if cfg.CloudTimeout <= 0 {
		cfg.CloudTimeout = def.CloudTimeout
	}
	if cfg.EdgeTimeout <= 0 {
		cfg.EdgeTimeout = def.EdgeTimeout
	}
	pipeline := BuildPipeline(model.Cfg, cfg.Threshold, cfg.EdgeThreshold)
	if err := pipeline.Validate(); err != nil {
		return nil, err
	}
	g := &Gateway{
		model:         model,
		reg:           newModelRegistry(model, 1),
		cfg:           cfg,
		pipeline:      pipeline,
		logger:        logger.With("node", "gateway"),
		tr:            tr,
		pool:          tensor.NewPool(),
		Meter:         metrics.NewCommMeter(),
		configVersion: 1,
		tenants:       make(map[string]tenantEntry),
	}
	g.registration.init("registration plane", g.logger, nil, g.serveRegistration)
	// All slots exist from construction; the ones without an address
	// begin absent (nil link) and join later via registration.
	g.devices = make([]*deviceLink, model.Cfg.Devices)
	g.wireConns = make([]*transport.CountingConn, model.Cfg.Devices)
	for i := range g.devices {
		g.devices[i] = &deviceLink{index: i}
	}
	for i, addr := range deviceAddrs {
		if addr == "" {
			continue // explicitly absent slot
		}
		conn, err := tr.Dial(ctx, addr)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("cluster: dial device %d: %w", i, err)
		}
		cc := transport.NewCountingConn(conn)
		g.wireConns[i] = cc
		g.devices[i].link = newLink(cc)
	}
	pool, err := newReplicaPool(ctx, g.upstreamExit(), tr, upstreamAddrs, g.logger)
	if err != nil {
		g.Close()
		return nil, err
	}
	g.upstream = pool
	return g, nil
}

// Upstream exposes the gateway's upstream replica pool for stats
// (replica count, health).
func (g *Gateway) Upstream() *ReplicaPool { return g.upstream }

// Pipeline returns the gateway's exit-stage list, lowest tier first.
func (g *Gateway) Pipeline() Pipeline { return g.pipeline }

// upstreamExit names the tier the gateway escalates to.
func (g *Gateway) upstreamExit() wire.ExitPoint { return g.pipeline[1].Exit }

// upstreamSentinel is the typed error for an unreachable upstream tier.
func (g *Gateway) upstreamSentinel() error {
	if g.upstreamExit() == wire.ExitEdge {
		return ErrEdgeUnavailable
	}
	return ErrCloudUnavailable
}

// upstreamTimeout bounds one escalation round trip.
func (g *Gateway) upstreamTimeout() time.Duration {
	if g.upstreamExit() == wire.ExitEdge {
		return g.cfg.EdgeTimeout
	}
	return g.cfg.CloudTimeout
}

// uploadCategory names the Meter bucket for relayed device features.
func (g *Gateway) uploadCategory() string {
	if g.upstreamExit() == wire.ExitEdge {
		return "edge-upload"
	}
	return "cloud-upload"
}

// WireBytesUp returns the total bytes the gateway has received on all
// device uplinks (the device→gateway direction: summaries and feature
// uploads), including protocol framing.
func (g *Gateway) WireBytesUp() int64 {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	var t int64
	for _, c := range g.wireConns {
		if c != nil {
			t += c.BytesRead() // device→gateway direction
		}
	}
	return t
}

// WireBytesDown returns the total bytes the gateway has written to all
// device links (the gateway→device direction: capture and feature
// requests), including protocol framing.
func (g *Gateway) WireBytesDown() int64 {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	var t int64
	for _, c := range g.wireConns {
		if c != nil {
			t += c.BytesWritten() // gateway→device direction
		}
	}
	return t
}

// capReply carries one device's answer to a session's CaptureBatch.
type capReply struct {
	device  int
	sum     *wire.SummaryBatch // nil when the device had no frame at all
	timeout bool
	err     error // session-fatal (context or model-version) error
}

// fetchReply carries one device's answer to a FeatureBatchRequest.
type fetchReply struct {
	device int
	fb     *wire.FeatureBatch
	err    error
}

// Classify runs the full staged inference of §III-D for one sample: a
// session whose batch is that one sample. It honors ctx cancellation
// and deadlines at every stage; on cancellation the error wraps
// ErrCanceled (or ErrDeadlineExceeded) as well as the context error.
func (g *Gateway) Classify(ctx context.Context, sampleID uint64) (*Result, error) {
	return first(g.classify(ctx, []uint64{sampleID}, g.pipeline))
}

// ClassifyBatch runs the full staged inference of §III-D for a batch of
// samples as one session: one capture round trip per device, one
// aggregated forward pass per device-mask group, and — for the samples
// that miss the local exit — one escalation carrying only the hard
// remainder upstream. Every stage processes samples row-wise, so a
// sample's decision and probabilities do not depend on the batch it
// rides in: batching changes wire framing and dispatch overhead, never
// results.
//
// The returned slice always has len(sampleIDs) entries in input order.
// When some samples fail (e.g. no device produced a summary for them, or
// the upstream tier was unreachable) their entries are nil and the first
// such failure is returned alongside the successful results.
func (g *Gateway) ClassifyBatch(ctx context.Context, sampleIDs []uint64) ([]*Result, error) {
	return g.classify(ctx, sampleIDs, g.pipeline)
}

// first unwraps the outcome of a one-sample session.
func first(results []*Result, err error) (*Result, error) {
	if len(results) == 0 || results[0] == nil {
		if err == nil {
			err = ErrNoSummaries
		}
		return nil, err
	}
	return results[0], nil
}

// classify runs one session over an explicit exit pipeline — the
// configured one, or a tenant's, tightened for a shed level. It is the
// gateway's only session driver: a single sample is a batch of one.
func (g *Gateway) classify(ctx context.Context, sampleIDs []uint64, pipeline Pipeline) ([]*Result, error) {
	n := len(sampleIDs)
	if n == 0 {
		return nil, nil
	}
	if n > wire.MaxBatch {
		return nil, fmt.Errorf("cluster: batch of %d samples exceeds wire.MaxBatch (%d)", n, wire.MaxBatch)
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	sid := g.nextSession.Add(1)
	start := time.Now()

	// Pin the session to the model version active right now and stamp
	// that concrete version (never the 0 sentinel) into every frame: all
	// hops of this session compute on the same weights even while a
	// rolling reload flips the fleet's active pointers one replica at a
	// time.
	model, mv, _ := g.reg.resolve(0)
	classes := model.Cfg.Classes
	devices := len(g.devices)

	// Pin the session to the membership and config version current right
	// now: devices joining or leaving mid-session cannot change which
	// links this session fans out to.
	snap := g.snapshotMembers()

	// Stage 1: every live device processes the whole batch in one forward
	// pass and sends a single summary frame to the local aggregator.
	replies := make(chan capReply, devices)
	req := &wire.CaptureBatch{Session: sid, ModelVersion: mv, SampleIDs: sampleIDs}
	inFlight := 0
	for d, l := range snap.links {
		if l == nil {
			continue
		}
		inFlight++
		go g.capture(ctx, d, l, req, replies)
	}
	exitVecs := make([]*tensor.Tensor, devices)
	for d := range exitVecs {
		exitVecs[d] = g.pool.Get(n, classes)
	}
	defer releaseAll(exitVecs, g.pool)
	masks := make([]uint16, n) // per sample: the devices that summarized it
	for i := 0; i < inFlight; i++ {
		r := <-replies
		if r.err != nil {
			return nil, r.err
		}
		if r.timeout {
			g.recordTimeout(r.device, snap.links[r.device])
			continue
		}
		g.recordSuccess(r.device, snap.links[r.device])
		if r.sum == nil {
			continue
		}
		row := 0
		for s := 0; s < n; s++ {
			if !r.sum.Has(s) {
				continue
			}
			copy(exitVecs[r.device].Row(s), r.sum.Probs[row*classes:(row+1)*classes])
			row++
			masks[s] |= 1 << uint(r.device)
		}
		g.Meter.Add("local-summary", int64(row*wire.SummaryPayloadBytes(classes)))
	}

	// Stage 2: aggregate and decide the first exit. Samples sharing a
	// device-presence mask aggregate in one masked forward pass, which is
	// the common whole-batch case when every device is up.
	results := make([]*Result, n)
	defer func() {
		// One exit observation per classified sample, after the session
		// settles (local exits and escalated verdicts alike).
		for _, r := range results {
			if r != nil {
				g.instr.observeExit(r.Exit, r.Latency)
			}
		}
	}()
	entropies := make([]float64, n)
	var firstErr error
	var escalate []int
	for _, grp := range groupByMask(masks, devices) {
		if grp.mask == 0 {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: sample %d: %w", sampleIDs[grp.indices[0]], ErrNoSummaries)
			}
			continue
		}
		vecs := selectGroup(exitVecs, grp.indices, n, g.pool)
		logits := model.LocalAggregate(vecs, grp.present)
		releaseGroup(exitVecs, vecs, g.pool)
		probs := nn.Softmax(logits)
		for k, idx := range grp.indices {
			entropies[idx] = nn.NormalizedEntropy(probs.Row(k))
			if entropies[idx] > pipeline[0].Threshold {
				escalate = append(escalate, idx)
				continue
			}
			row := make([]float32, classes)
			copy(row, probs.Row(k))
			results[idx] = &Result{
				SampleID:      sampleIDs[idx],
				Class:         probs.ArgMaxRow(k),
				Exit:          wire.ExitLocal,
				Probs:         row,
				Entropy:       entropies[idx],
				Present:       presentOf(masks[idx], devices),
				ConfigVersion: snap.version,
				ModelVersion:  mv,
				Latency:       time.Since(start),
			}
		}
	}
	g.instr.observeStage(wire.ExitLocal, time.Since(start))
	if len(escalate) == 0 {
		return results, firstErr
	}

	// Stage 3: the hard remainder — and only it — rides upstream as one
	// escalation (the paper's staged partial exit).
	escStart := time.Now()
	slices.Sort(escalate) // batch order across mask groups
	err := g.escalate(ctx, snap, sid, mv, model, sampleIDs, escalate, masks, entropies, results, start, pipeline)
	if err == nil {
		g.instr.observeStage(g.upstreamExit(), time.Since(escStart))
	}
	if err != nil && firstErr == nil {
		firstErr = err
	}
	return results, firstErr
}

// capture runs one device's capture round trip for a session.
func (g *Gateway) capture(ctx context.Context, device int, l *link, req *wire.CaptureBatch, replies chan<- capReply) {
	msg, err := l.request(ctx, req.Session, req, g.cfg.DeviceTimeout)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			replies <- capReply{device: device, err: ctxErr(cerr)}
			return
		}
		replies <- capReply{device: device, timeout: true}
		return
	}
	switch m := msg.(type) {
	case *wire.SummaryBatch:
		if int(m.Count) != len(req.SampleIDs) || int(m.Classes) != g.model.Cfg.Classes {
			replies <- capReply{device: device, timeout: true}
			return
		}
		replies <- capReply{device: device, sum: m}
	case *wire.Error:
		if m.Code == 426 {
			// The device's registry no longer holds the session's pinned
			// version; degrading to "absent frame" would silently answer
			// on fewer devices, so the session fails typed instead.
			replies <- capReply{device: device, err: fmt.Errorf("cluster: device %d: %w", device, ErrModelVersionUnknown)}
			return
		}
		// The device had no frame for any sample (feed failure).
		replies <- capReply{device: device}
	default:
		replies <- capReply{device: device, timeout: true}
	}
}

// fetch runs one device's feature round trip for a session.
func (g *Gateway) fetch(ctx context.Context, device int, l *link, req *wire.FeatureBatchRequest, out chan<- fetchReply) {
	msg, err := l.request(ctx, req.Session, req, g.cfg.DeviceTimeout)
	if err != nil {
		out <- fetchReply{device: device, err: err}
		return
	}
	switch m := msg.(type) {
	case *wire.FeatureBatch:
		if int(m.Count) != len(req.SampleIDs) {
			out <- fetchReply{device: device, err: fmt.Errorf("cluster: device %d sent %d feature maps, want %d", device, m.Count, len(req.SampleIDs))}
			return
		}
		out <- fetchReply{device: device, fb: m}
	case *wire.Error:
		if m.Code == 426 {
			out <- fetchReply{device: device, err: fmt.Errorf("cluster: device %d: %w", device, ErrModelVersionUnknown)}
			return
		}
		out <- fetchReply{device: device, err: fmt.Errorf("cluster: device %d: %s", device, m.Msg)}
	default:
		out <- fetchReply{device: device, err: fmt.Errorf("cluster: expected FeatureBatch, got %v", msg.MsgType())}
	}
}

// escalate fetches the escalating samples' feature maps from the devices
// that cover them — each device packs its subset into one frame — and
// relays them in one Escalation to a pool-scheduled replica of the next
// tier: an edge replica, which answers confident samples itself and
// forwards the rest to the cloud, or a cloud replica directly in a
// two-tier hierarchy. The relayed thresholds come from the session's
// pipeline, so tenant and shed overrides reach the upper tiers. Results
// for every escalating index are filled from the returned ResultBatch;
// if the replica dies mid-session the pool re-sends the frame to another.
// escalate lists batch positions in ascending order.
func (g *Gateway) escalate(ctx context.Context, snap memberSnapshot, sid, mv uint64, model *core.Model, sampleIDs []uint64, escalate []int, masks []uint16, entropies []float64, results []*Result, start time.Time, pipeline Pipeline) error {
	sentinel := g.upstreamSentinel()
	if g.upstream.Down() {
		return fmt.Errorf("cluster: %d escalating samples: %w: %w", len(escalate), sentinel, ErrNoHealthyReplica)
	}
	devices := len(g.devices)
	var union uint16
	shared := true // every escalating sample has the same device mask
	for _, idx := range escalate {
		union |= masks[idx]
		shared = shared && masks[idx] == masks[escalate[0]]
	}
	// idsOf lists the escalating samples a device mask bit covers; when
	// the masks agree, every covering device shares one request.
	idsOf := func(bit uint16) []uint64 {
		if len(escalate) == len(sampleIDs) && shared {
			return sampleIDs // everything escalates, in batch order
		}
		var ids []uint64
		for _, idx := range escalate {
			if masks[idx]&bit != 0 {
				ids = append(ids, sampleIDs[idx])
			}
		}
		return ids
	}
	var sharedReq *wire.FeatureBatchRequest
	if shared {
		sharedReq = &wire.FeatureBatchRequest{Session: sid, ModelVersion: mv, SampleIDs: idsOf(union)}
	}
	fetches := make(chan fetchReply, devices)
	inFlight := 0
	for d := 0; d < devices; d++ {
		bit := uint16(1) << uint(d)
		if union&bit == 0 {
			continue
		}
		req := sharedReq
		if req == nil {
			req = &wire.FeatureBatchRequest{Session: sid, ModelVersion: mv, SampleIDs: idsOf(bit)}
		}
		inFlight++
		go g.fetch(ctx, d, snap.links[d], req, fetches)
	}
	cfg := model.Cfg
	got := make([]*wire.FeatureBatch, devices)
	total := 0
	for i := 0; i < inFlight; i++ {
		f := <-fetches
		if f.err == nil && (int(f.fb.F) != cfg.DeviceFilters || int(f.fb.H) != cfg.FeatureH() || int(f.fb.W) != cfg.FeatureW()) {
			f.err = fmt.Errorf("cluster: device %d feature shape %d×%d×%d, model expects %d×%d×%d",
				f.device, f.fb.F, f.fb.H, f.fb.W, cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW())
		}
		if f.err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return ctxErr(cerr)
			}
			if errors.Is(f.err, ErrModelVersionUnknown) {
				return fmt.Errorf("cluster: %d escalating samples: %w", len(escalate), f.err)
			}
			// The device answered the capture but died before the feature
			// fetch; degrade to the remaining devices for the session.
			g.logger.Warn("feature fetch failed", "device", f.device, "err", f.err)
			for _, idx := range escalate {
				masks[idx] &^= 1 << uint(f.device)
			}
			continue
		}
		got[f.device] = f.fb
		total += len(f.fb.Bits)
		g.Meter.Add(g.uploadCategory(), int64(len(f.fb.Bits)))
	}
	if total == 0 {
		return fmt.Errorf("cluster: no features collected for %d escalating samples: %w", len(escalate), ErrNoSummaries)
	}
	// Samples whose every covering device died before the fetch have no
	// features to escalate; drop them (their results stay nil) so the
	// masks exactly describe the relayed features.
	var dropErr error
	kept := escalate[:0]
	for _, idx := range escalate {
		if masks[idx] == 0 {
			if dropErr == nil {
				dropErr = fmt.Errorf("cluster: sample %d: %w", sampleIDs[idx], ErrNoSummaries)
			}
			continue
		}
		kept = append(kept, idx)
	}
	escalate = kept

	esc := &wire.Escalation{
		Session:      sid,
		ModelVersion: mv,
		Devices:      uint16(devices),
		F:            uint16(cfg.DeviceFilters),
		H:            uint16(cfg.FeatureH()),
		W:            uint16(cfg.FeatureW()),
		SampleIDs:    sampleIDs,
		Masks:        make([]uint16, len(escalate)),
		Thresholds:   pipeline.RelayThresholds(),
	}
	if len(escalate) < len(sampleIDs) {
		esc.SampleIDs = make([]uint64, len(escalate))
		for k, idx := range escalate {
			esc.SampleIDs[k] = sampleIDs[idx]
		}
	}
	for k, idx := range escalate {
		esc.Masks[k] = masks[idx]
	}
	// Device-major feature payload: each device's frame already holds its
	// covered samples in batch order.
	esc.Bits = make([]byte, 0, total)
	for _, fb := range got {
		if fb != nil {
			esc.Bits = append(esc.Bits, fb.Bits...)
		}
	}

	msg, err := g.upstream.relay(ctx, sid, g.upstreamTimeout(), esc)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return ctxErr(cerr)
		}
		return fmt.Errorf("cluster: %w: %w", sentinel, err)
	}
	verdicts, err := upstreamVerdicts(msg, esc.SampleIDs)
	if err != nil {
		var e *wire.Error
		switch {
		case !errors.As(err, &e):
			return fmt.Errorf("cluster: %v tier: %w", g.upstreamExit(), err)
		case e.Code == 503:
			// The edge reached its own exit but the tier above it did
			// not answer.
			return fmt.Errorf("cluster: %w: %v tier: %s", ErrCloudUnavailable, g.upstreamExit(), e.Msg)
		case e.Code == 426:
			return fmt.Errorf("cluster: %w: %v tier: %s", ErrModelVersionUnknown, g.upstreamExit(), e.Msg)
		default:
			return fmt.Errorf("cluster: %w: %v error %d: %s", sentinel, g.upstreamExit(), e.Code, e.Msg)
		}
	}
	for k, v := range verdicts {
		idx := escalate[k]
		results[idx] = &Result{
			SampleID:      sampleIDs[idx],
			Class:         int(v.Class),
			Exit:          v.Exit,
			Probs:         v.Probs,
			Entropy:       entropies[idx],
			Present:       presentOf(masks[idx], devices),
			ConfigVersion: snap.version,
			ModelVersion:  mv,
			Latency:       time.Since(start),
		}
	}
	return dropErr
}

// recordTimeout counts a consecutive miss and applies sticky marking.
// The session's snapshot link guards against membership churn: a
// timeout observed on a link that has since been replaced (the slot
// re-registered or left) must not count against the slot's current
// occupant.
func (g *Gateway) recordTimeout(device int, l *link) {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	dl := g.devices[device]
	if dl.link != l {
		return // stale observation from before a membership change
	}
	dl.failures++
	if g.cfg.MaxFailures > 0 && dl.failures >= g.cfg.MaxFailures && !dl.down {
		g.logger.Warn("device marked down", "device", device, "consecutive_timeouts", dl.failures)
		dl.down = true
	}
}

// recordSuccess resets the consecutive-miss counter; stale observations
// from before a membership change are dropped (see recordTimeout).
func (g *Gateway) recordSuccess(device int, l *link) {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	dl := g.devices[device]
	if dl.link != l {
		return
	}
	dl.failures = 0
}

// DownDevices returns the indices of devices currently marked down by
// sticky failure detection.
func (g *Gateway) DownDevices() []int {
	g.stateMu.Lock()
	defer g.stateMu.Unlock()
	var out []int
	for _, dl := range g.devices {
		if dl.down {
			out = append(out, dl.index)
		}
	}
	return out
}

// UpstreamDown reports whether no replica of the next tier up (edge or
// cloud) can currently serve — every replica is fenced by the health
// monitor or by in-session failure detection, and none is eligible for
// a trial. Escalations then fail fast with the tier's typed error
// wrapping ErrNoHealthyReplica instead of waiting out the timeout.
func (g *Gateway) UpstreamDown() bool { return g.upstream.Down() }

// setUpstreamReplicaDown flips one upstream replica's availability from
// the failure detector.
func (g *Gateway) setUpstreamReplicaDown(replica int, down bool) {
	g.upstream.setDown(replica, down)
}

// Close tears down all connections, including the registration plane
// when one is serving.
func (g *Gateway) Close() error {
	g.registration.Close()
	g.stateMu.Lock()
	g.closed = true
	var links []*link
	for _, dl := range g.devices {
		if dl.link != nil {
			links = append(links, dl.link)
			dl.link = nil
		}
	}
	g.stateMu.Unlock()
	for _, l := range links {
		l.close()
	}
	if g.upstream != nil {
		g.upstream.close()
	}
	return nil
}
