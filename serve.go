package ddnn

import (
	"context"
	"log/slog"
	"time"

	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// ExitPoint identifies where a sample was classified.
type ExitPoint = wire.ExitPoint

// LinkProfile describes a simulated network link (one-way latency plus
// serialization bandwidth).
type LinkProfile = transport.LinkProfile

// Canned link profiles for the hierarchy tiers (§IV-B).
var (
	// DeviceToGatewayLink models a low-power local wireless uplink.
	DeviceToGatewayLink = transport.DeviceToGateway
	// GatewayToEdgeLink models the short hop to a nearby edge (fog) node.
	GatewayToEdgeLink = transport.GatewayToEdge
	// GatewayToCloudLink models a WAN path to a datacenter.
	GatewayToCloudLink = transport.GatewayToCloud
)

// Exit points in hierarchy order.
const (
	ExitLocal = wire.ExitLocal
	ExitEdge  = wire.ExitEdge
	ExitCloud = wire.ExitCloud
)

// Result is the outcome of one classification session: the predicted
// class, the exit point that produced it, the class probabilities, the
// local-aggregate entropy, device presence and wall-clock latency.
type Result = cluster.Result

// Tensor is the dense float32 tensor type used for uploaded sensor
// views (see Engine.ClassifyUpload).
type Tensor = tensor.Tensor

// NewTensor allocates a zeroed tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// Uploaded sensor view dimensions: each device view of a sample is a
// [1, ImageC, ImageH, ImageW] tensor.
const (
	ImageC = dataset.ImageC
	ImageH = dataset.ImageH
	ImageW = dataset.ImageW
)

// ShedLevel selects how aggressively an overloaded serving system
// degrades answer quality to preserve availability: each level forces
// the exit pipeline to stop one stage earlier, so requests are answered
// by a cheaper exit instead of queueing for the full hierarchy.
type ShedLevel = cluster.ShedLevel

// Shed levels in escalation order.
const (
	// ShedNone runs the configured exit pipeline unchanged.
	ShedNone = cluster.ShedNone
	// ShedPreferEdge caps three-tier hierarchies at the edge exit (the
	// cloud is never consulted); two-tier hierarchies degrade straight to
	// the local exit.
	ShedPreferEdge = cluster.ShedPreferEdge
	// ShedLocalOnly answers every sample at the device-local exit.
	ShedLocalOnly = cluster.ShedLocalOnly
)

// Instrumentation holds optional serving-observability callbacks; see
// Engine.SetInstrumentation.
type Instrumentation = cluster.Instrumentation

// TopologyConfig is a versioned snapshot of the hierarchy's runtime
// shape — occupied device slots and configured tenants; see
// Engine.Topology.
type TopologyConfig = cluster.TopologyConfig

// TenantConfig selects the exit-threshold policy one tenant's traffic
// runs under; see Engine.SetTenant.
type TenantConfig = cluster.TenantConfig

// Typed serving errors, for errors.Is against Engine results. ErrCanceled
// and ErrDeadlineExceeded also wrap the corresponding context error.
var (
	ErrCanceled          = cluster.ErrCanceled
	ErrDeadlineExceeded  = cluster.ErrDeadlineExceeded
	ErrEngineClosed      = cluster.ErrClosed
	ErrNoSummaries       = cluster.ErrNoSummaries
	ErrCloudUnavailable  = cluster.ErrCloudUnavailable
	ErrEdgeUnavailable   = cluster.ErrEdgeUnavailable
	ErrNoHealthyReplica  = cluster.ErrNoHealthyReplica
	ErrTooManyDevices    = cluster.ErrTooManyDevices
	ErrUploadUnsupported = cluster.ErrUploadUnsupported
	// ErrDeviceSlotMismatch reports a device-slot reference the model's
	// hierarchy cannot satisfy (too many construction addresses, or an
	// admission/removal naming a slot out of range). Fewer addresses than
	// slots is not an error: the engine starts with a partial device set
	// and admits the rest at runtime.
	ErrDeviceSlotMismatch = cluster.ErrDeviceSlotMismatch
	// ErrModelVersionUnknown reports a model version no registry holds —
	// a rollout or session pinned to a version the fleet never loaded.
	ErrModelVersionUnknown = cluster.ErrModelVersionUnknown
	// ErrDuplicateModelVersion reports a RegisterModel version collision.
	ErrDuplicateModelVersion = cluster.ErrDuplicateModelVersion
	// ErrModelConfigMismatch reports a registered model whose architecture
	// differs from the serving fleet's.
	ErrModelConfigMismatch = cluster.ErrModelConfigMismatch
	// ErrRolloutInProgress reports a RolloutModel call racing another;
	// rollouts are serialized fleet-wide.
	ErrRolloutInProgress = cluster.ErrRolloutInProgress
	// ErrRolloutFailed reports a rollout that failed a canary (or lost a
	// replica mid-flight) and automatically rolled the fleet back to the
	// prior active version.
	ErrRolloutFailed = cluster.ErrRolloutFailed
)

// Rollout lifecycle states, as reported by Engine.RolloutState.
const (
	// RolloutIdle means no rollout is running and the last one (if any)
	// completed.
	RolloutIdle = cluster.RolloutIdle
	// RolloutRolling means a rolling reload is flipping replicas now.
	RolloutRolling = cluster.RolloutRolling
	// RolloutRolledBack means the last rollout failed its canary and the
	// fleet was restored to the prior version.
	RolloutRolledBack = cluster.RolloutRolledBack
)

// engineOptions collects the functional options of NewEngine and Connect.
type engineOptions struct {
	cfg cluster.EngineConfig
}

// Option configures an Engine.
type Option func(*engineOptions)

// WithThreshold sets the local exit's normalized-entropy threshold T
// (§III-D; default 0.8).
func WithThreshold(t float64) Option {
	return func(o *engineOptions) { o.cfg.Gateway.Threshold = t }
}

// WithDeviceTimeout bounds each device round trip; devices that miss it
// are treated as absent for the sample (graceful degradation, §IV-G).
func WithDeviceTimeout(d time.Duration) Option {
	return func(o *engineOptions) { o.cfg.Gateway.DeviceTimeout = d }
}

// WithCloudTimeout bounds the cloud round trip.
func WithCloudTimeout(d time.Duration) Option {
	return func(o *engineOptions) { o.cfg.Gateway.CloudTimeout = d }
}

// WithEdgeThreshold sets the edge exit's normalized-entropy threshold
// for models built with an edge tier (default 0.8). Samples that miss
// the local exit are answered at the edge when the edge exit's entropy
// is within this threshold; only the rest travel on to the cloud.
func WithEdgeThreshold(t float64) Option {
	return func(o *engineOptions) { o.cfg.Gateway.EdgeThreshold = t }
}

// WithEdgeTimeout bounds the gateway↔edge escalation round trip of an
// edge-tier hierarchy, including any cloud relay behind the edge.
func WithEdgeTimeout(d time.Duration) Option {
	return func(o *engineOptions) { o.cfg.Gateway.EdgeTimeout = d }
}

// WithMaxFailures marks a device down after n consecutive timeouts so
// later sessions skip it immediately; 0 disables sticky detection.
func WithMaxFailures(n int) Option {
	return func(o *engineOptions) { o.cfg.Gateway.MaxFailures = n }
}

// WithMaxConcurrency bounds the number of in-flight sessions; additional
// Classify calls queue (respecting their contexts). Default 16.
func WithMaxConcurrency(n int) Option {
	return func(o *engineOptions) { o.cfg.MaxConcurrency = n }
}

// WithCloudReplicas makes an in-process engine (NewEngine) start n cloud
// replicas instead of one. Escalations load-balance across the healthy
// replicas (power-of-two-choices on in-flight count) and fail over to
// another replica when one dies mid-session, so the cloud tier is no
// longer a single point of failure or the throughput ceiling. Connect
// ignores it — its upstream address list defines the replicas.
func WithCloudReplicas(n int) Option {
	return func(o *engineOptions) { o.cfg.CloudReplicas = n }
}

// WithEdgeReplicas makes an in-process engine (NewEngine) start n edge
// replicas for models built with an edge tier; each replica pools every
// cloud replica. Escalations load-balance and fail over exactly as with
// WithCloudReplicas. Connect ignores it — its upstream address list
// defines the replicas.
func WithEdgeReplicas(n int) Option {
	return func(o *engineOptions) { o.cfg.EdgeReplicas = n }
}

// WithWorkers bounds the intra-batch compute worker pool: when a
// coalesced micro-batch reaches a tier, its samples (and the
// output-channel blocks of large convolutions) split across up to n
// goroutines. The default is GOMAXPROCS. The bound is process-wide —
// every engine in the process shares the machine's cores — so the last
// configured engine wins.
func WithWorkers(n int) Option {
	return func(o *engineOptions) { o.cfg.Workers = n }
}

// WithBatching enables work-conserving cross-session micro-batching:
// concurrent Classify calls coalesce into one multi-sample session per
// tier — one capture round trip per device, one batched escalation for
// the samples that miss the local exit — so wire framing and conv/GEMM
// dispatch amortize across up to maxBatch samples. An idle engine adds
// no linger: a call that finds no batched session in flight starts its
// session at once. Calls arriving while one is in flight form the next
// batch, which flushes when full, when the in-flight work finishes, or
// after linger (<= 0 means the 2 ms default), whichever is first;
// results are bit-identical to single-sample batches. maxBatch <= 1
// disables batching. ClassifyBatch chunks its IDs into maxBatch-sized
// sessions directly.
func WithBatching(maxBatch int, linger time.Duration) Option {
	return func(o *engineOptions) {
		o.cfg.Batch = cluster.BatchConfig{MaxBatch: maxBatch, MaxLinger: linger}
	}
}

// DefaultMaxBatch is a sensible micro-batch cap for WithBatching.
const DefaultMaxBatch = cluster.DefaultMaxBatch

// WithLogger routes node logs to l instead of slog.Default().
func WithLogger(l *slog.Logger) Option {
	return func(o *engineOptions) { o.cfg.Logger = l }
}

// WithSimulatedLinks imposes link profiles on the in-process cluster's
// connections: device uplinks get the device profile and the cloud path
// the cloud profile. Only NewEngine honors it; Connect runs over real
// sockets.
func WithSimulatedLinks(device, cloud LinkProfile) Option {
	return func(o *engineOptions) {
		o.cfg.DeviceLink = device
		o.cfg.CloudLink = cloud
	}
}

// WithSimulatedEdgeLink imposes a link profile on the gateway↔edge hop
// of an in-process edge-tier cluster (typically GatewayToEdgeLink),
// composing with WithSimulatedLinks. Only NewEngine honors it.
func WithSimulatedEdgeLink(edge LinkProfile) Option {
	return func(o *engineOptions) { o.cfg.EdgeLink = edge }
}

func buildOptions(opts []Option) engineOptions {
	o := engineOptions{cfg: cluster.EngineConfig{Gateway: cluster.DefaultGatewayConfig()}}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Engine is the serving entry point of the package: a DDNN cluster behind
// a context-aware, concurrency-bounded API. Every Classify call is an
// independent inference session — sessions are multiplexed over the
// device links, load-balanced across the upstream tier's replica pool,
// and proceed in parallel up to the configured concurrency limit. All
// methods are safe for concurrent use.
type Engine struct {
	inner *cluster.Engine
}

// NewEngine starts a complete in-process DDNN cluster — device nodes,
// gateway, the edge replicas for models built with UseEdge
// (WithEdgeReplicas) and the cloud replicas (WithCloudReplicas) over
// in-memory links — serving device sensors from the dataset, and returns
// the engine fronting it. Sample IDs are dataset indices.
func NewEngine(m *Model, ds *Dataset, opts ...Option) (*Engine, error) {
	o := buildOptions(opts)
	inner, err := cluster.NewEngine(m, ds, o.cfg, transport.NewMem())
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner}, nil
}

// Connect attaches an engine to already-running nodes over TCP: the
// device nodes (cmd/ddnn-device) plus the replicas of the gateway's
// upstream tier — edge nodes (cmd/ddnn-edge) for models built with
// UseEdge, cloud nodes (cmd/ddnn-cloud) otherwise. deviceAddrs must be
// in device order; it may name fewer devices than the model has slots
// (or leave slots empty with "") — absent slots join later through
// AdmitDeviceAddr or the registration plane (ServeRegistration).
// upstreamAddrs lists the upstream tier's replicas, and
// sessions load-balance across them and fail over when one dies. The
// context bounds connection setup.
func Connect(ctx context.Context, m *Model, deviceAddrs []string, upstreamAddrs []string, opts ...Option) (*Engine, error) {
	o := buildOptions(opts)
	inner, err := cluster.AttachEngine(ctx, m, o.cfg, transport.TCP{}, deviceAddrs, upstreamAddrs)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner}, nil
}

// Classify runs the staged inference of §III-D for one sample as an
// independent session. The context governs queueing, every device round
// trip and the cloud escalation; cancellation surfaces as ErrCanceled and
// an expired deadline as ErrDeadlineExceeded.
func (e *Engine) Classify(ctx context.Context, sampleID uint64) (Result, error) {
	res, err := e.inner.Classify(ctx, sampleID)
	if err != nil {
		return Result{}, err
	}
	return *res, nil
}

// ClassifyTenantShed is Classify under a tenant's exit-threshold
// pipeline: the tenant's TenantConfig (see SetTenant) picks the
// thresholds, the shed level tightens them. Under overload the caller
// trades answer quality (a cheaper exit) for availability instead of
// queueing; ShedNone with the empty tenant behaves exactly like
// Classify. Requests at different shed levels never share a
// micro-batch. Unknown tenants — and the
// empty tenant — run the engine's default pipeline, so tenancy is
// opt-in per client. Requests for different tenants never share a
// micro-batch.
func (e *Engine) ClassifyTenantShed(ctx context.Context, sampleID uint64, tenant string, level ShedLevel) (Result, error) {
	res, err := e.inner.ClassifyTenantShed(ctx, sampleID, tenant, level)
	if err != nil {
		return Result{}, err
	}
	return *res, nil
}

// ClassifyUpload classifies one caller-supplied sample instead of a
// dataset index: views holds one [1, ImageC, ImageH, ImageW] tensor per
// device of the model. The sample rides the normal staged session
// (micro-batching, shed level, replica failover included); the returned
// Result.SampleID is a transient upload ID. Only in-process engines
// (NewEngine) support uploads — Connect-ed engines return
// ErrUploadUnsupported because remote devices own their own sensors.
func (e *Engine) ClassifyUpload(ctx context.Context, views []*Tensor, level ShedLevel) (Result, error) {
	res, err := e.inner.ClassifyUpload(ctx, views, level)
	if err != nil {
		return Result{}, err
	}
	return *res, nil
}

// SetInstrumentation installs serving-observability callbacks on the
// engine's gateway: ExitObserved fires once per classified sample with
// its exit point and session latency, StageObserved once per tier round
// trip. Callbacks must be fast and safe for concurrent use; nil fields
// are skipped. Passing a zero Instrumentation removes the callbacks.
func (e *Engine) SetInstrumentation(in Instrumentation) {
	e.inner.Gateway().SetInstrumentation(in)
}

// ClassifyBatch classifies the samples concurrently — bounded by the
// engine's max concurrency — and returns results in input order. On the
// first session error the remaining sessions are canceled and only the
// error is returned (no partial results: a zero Result is
// indistinguishable from a real class-0 local exit).
func (e *Engine) ClassifyBatch(ctx context.Context, sampleIDs []uint64) ([]Result, error) {
	inner, err := e.inner.ClassifyBatch(ctx, sampleIDs)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(inner))
	for i, r := range inner {
		out[i] = *r
	}
	return out, nil
}

// ClassifyBatchTenantShed is ClassifyBatch under a tenant's
// exit-threshold pipeline tightened for a shed level; see
// ClassifyTenantShed.
func (e *Engine) ClassifyBatchTenantShed(ctx context.Context, sampleIDs []uint64, tenant string, level ShedLevel) ([]Result, error) {
	inner, err := e.inner.ClassifyBatchTenantShed(ctx, sampleIDs, tenant, level)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(inner))
	for i, r := range inner {
		out[i] = *r
	}
	return out, nil
}

// AdmitDevice (re-)admits the device in slot into the live topology by
// dialing the address the engine was built with, and returns the
// resulting topology config version. Sessions already in flight complete
// under the membership they observed; new sessions fan out to the
// admitted device.
func (e *Engine) AdmitDevice(ctx context.Context, slot int) (uint64, error) {
	return e.inner.AdmitDevice(ctx, slot)
}

// AdmitDeviceAddr admits a device at an explicit data-plane address into
// slot (a device that moved, or a slot constructed without an address),
// returning the resulting topology config version.
func (e *Engine) AdmitDeviceAddr(ctx context.Context, slot int, addr string) (uint64, error) {
	return e.inner.AdmitDeviceAddr(ctx, slot, addr)
}

// RemoveDevice deregisters the device in slot from the live topology and
// returns the resulting topology config version. In-flight sessions
// complete under the membership snapshot they observed; new sessions no
// longer fan out to the slot.
func (e *Engine) RemoveDevice(slot int) (uint64, error) {
	return e.inner.RemoveDevice(slot)
}

// SetTenant installs or updates a tenant's exit-threshold config and
// returns the resulting topology config version. Tenant traffic routes
// through ClassifyTenantShed / ClassifyBatchTenantShed (the HTTP front
// door maps the authenticated client identity to the tenant).
func (e *Engine) SetTenant(name string, tc TenantConfig) (uint64, error) {
	return e.inner.SetTenant(name, tc)
}

// RemoveTenant deletes a tenant's config — its traffic falls back to the
// engine's default pipeline — and returns the resulting topology config
// version.
func (e *Engine) RemoveTenant(name string) uint64 {
	return e.inner.RemoveTenant(name)
}

// ConfigVersion returns the current topology config version: 1 for a
// fresh engine, bumped on every membership or tenant mutation. Every
// Result carries the version its session ran under.
func (e *Engine) ConfigVersion() uint64 { return e.inner.ConfigVersion() }

// Topology returns a snapshot of the versioned runtime topology: the
// config version, total device slots, per-slot occupancy and the
// configured tenants.
func (e *Engine) Topology() TopologyConfig { return e.inner.Topology() }

// ServeRegistration starts the engine's device-registration plane on
// addr: a listener where device nodes announce themselves (join, leave,
// re-register) mid-run, without an engine restart. See
// cmd/ddnn-device's -register flag.
func (e *Engine) ServeRegistration(addr string) error {
	return e.inner.ServeRegistration(addr)
}

// RegisterModel registers an already-loaded model under an explicit
// nonzero version number in the engine's model registry. The
// architecture must match the serving fleet's (ErrModelConfigMismatch)
// and the version must be new (ErrDuplicateModelVersion). Registration
// alone changes nothing about serving — RolloutModel makes a version
// live.
func (e *Engine) RegisterModel(version uint64, m *Model) error {
	return e.inner.RegisterModel(version, m)
}

// RegisterModelBytes decodes a versioned model artifact (see
// SaveModelVersion) and registers it under its stamped version, which
// is returned. Corrupt artifacts fail with ErrCorruptModel before
// touching the registry.
func (e *Engine) RegisterModelBytes(data []byte) (uint64, error) {
	return e.inner.RegisterModelBytes(data)
}

// ModelVersion returns the fleet's active model version (1 for a fresh
// engine). Every Result carries the version its session was pinned to.
func (e *Engine) ModelVersion() uint64 { return e.inner.ModelVersion() }

// ModelVersions returns every version the engine's registry holds, in
// ascending order.
func (e *Engine) ModelVersions() []uint64 { return e.inner.ModelVersions() }

// RolloutState reports the model lifecycle state: RolloutIdle,
// RolloutRolling or RolloutRolledBack.
func (e *Engine) RolloutState() string { return e.inner.RolloutState() }

// RolloutModel performs a zero-downtime rolling reload of the in-process
// fleet onto a registered version: one upstream replica at a time is
// fenced out of scheduling, drained, flipped, and canaried against the
// staged reference (bit-identical outputs on a held-out batch) before
// traffic returns to it. Sessions in flight keep the version they
// pinned at session start. A failed canary rolls the entire fleet back
// to the prior version automatically and surfaces ErrRolloutFailed;
// concurrent rollouts fail fast with ErrRolloutInProgress. Keep at
// least two replicas per tier (WithEdgeReplicas/WithCloudReplicas) for
// true zero-downtime — with a single replica, escalations during its
// drain window fail over to no one and surface ErrNoHealthyReplica.
func (e *Engine) RolloutModel(ctx context.Context, version uint64) error {
	return e.inner.RolloutModel(ctx, version)
}

// PayloadBytes returns the accumulated Eq. (1) payload bytes across all
// sessions on the first hop (local summaries plus the device feature
// maps relayed up the hierarchy).
func (e *Engine) PayloadBytes() int64 { return e.inner.Gateway().Meter.Total() }

// EdgePayloadBytes returns the accumulated payload bytes on the
// edge→cloud hop — the bit-packed edge feature maps escalated for
// samples that missed both the local and the edge exit. It is 0 for
// two-tier models and engines attached to remote nodes.
func (e *Engine) EdgePayloadBytes() int64 {
	edge := e.inner.Edge()
	if edge == nil {
		return 0
	}
	return edge.Meter.Total()
}

// WireBytesUp returns the total bytes the gateway has received on all
// device uplinks (device→gateway direction), including protocol framing.
func (e *Engine) WireBytesUp() int64 { return e.inner.Gateway().WireBytesUp() }

// WireBytesDown returns the total bytes the gateway has written to all
// device links (gateway→device direction: capture and feature requests),
// including protocol framing.
func (e *Engine) WireBytesDown() int64 { return e.inner.Gateway().WireBytesDown() }

// DownDevices returns the devices currently marked down by failure
// detection.
func (e *Engine) DownDevices() []int { return e.inner.Gateway().DownDevices() }

// SetDeviceFailed toggles simulated failure of one in-process device node
// (no-op reporting false when the engine is connected to remote nodes).
// Crashed devices go silent; the gateway degrades gracefully (§IV-G).
func (e *Engine) SetDeviceFailed(device int, failed bool) bool {
	devs := e.inner.Devices()
	if device < 0 || device >= len(devs) {
		return false
	}
	devs[device].SetFailed(failed)
	return true
}

// SetEdgeFailed toggles simulated failure of one in-process edge replica
// (no-op reporting false for two-tier models, attached engines, or an
// out-of-range replica index). A crashed edge goes silent; the gateway's
// replica pool fails sessions over to the remaining edge replicas, and
// escalations surface ErrEdgeUnavailable only once every replica is
// down — confident samples keep exiting locally throughout.
func (e *Engine) SetEdgeFailed(replica int, failed bool) bool {
	edges := e.inner.Edges()
	if replica < 0 || replica >= len(edges) {
		return false
	}
	edges[replica].SetFailed(failed)
	return true
}

// SetCloudFailed toggles simulated failure of one in-process cloud
// replica (no-op reporting false for attached engines or an out-of-range
// replica index). A crashed cloud replica goes silent; the downstream
// tier's replica pool fences it and fails in-flight escalations over to
// the remaining replicas, re-sending the full feature frames so every
// sample still gets its deterministic answer.
func (e *Engine) SetCloudFailed(replica int, failed bool) bool {
	clouds := e.inner.Clouds()
	if replica < 0 || replica >= len(clouds) {
		return false
	}
	clouds[replica].SetFailed(failed)
	return true
}

// UpstreamReplicas returns the number of replicas in the gateway's
// upstream tier (edge for edge-tier models, cloud otherwise) and how
// many of them are currently healthy.
func (e *Engine) UpstreamReplicas() (total, healthy int) {
	pool := e.inner.Gateway().Upstream()
	return pool.Size(), pool.Healthy()
}

// StartHealthMonitor begins heartbeat probing of the engine's devices
// and every upstream replica: a node missing `misses` consecutive probes
// is marked down (sessions skip the device, or the replica pool stops
// scheduling the replica) and marked up again on its first answer. Stop
// the returned monitor when done.
func (e *Engine) StartHealthMonitor(ctx context.Context, interval time.Duration, misses int) (*HealthMonitor, error) {
	return e.inner.StartHealthMonitor(ctx, interval, misses)
}

// HealthMonitor drives automatic device up/down detection; see
// Engine.StartHealthMonitor.
type HealthMonitor = cluster.HealthMonitor

// Close drains in-flight sessions and tears the engine down.
func (e *Engine) Close() error { return e.inner.Close() }
