package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sync"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Topology sizes the replicated tiers of an in-process cluster. The zero
// value means one replica per tier — the paper's original single-edge,
// single-cloud hierarchy.
type Topology struct {
	// EdgeReplicas is the number of edge nodes to start for edge-tier
	// models (ignored otherwise); 0 means 1.
	EdgeReplicas int
	// CloudReplicas is the number of cloud nodes to start; 0 means 1.
	CloudReplicas int
	// Edge configures the edge replicas (cloud escalation budget,
	// fallback behavior); nil means DefaultEdgeConfig.
	Edge *EdgeConfig
}

// normalize applies the zero-value defaults.
func (t Topology) normalize() Topology {
	if t.EdgeReplicas <= 0 {
		t.EdgeReplicas = 1
	}
	if t.CloudReplicas <= 0 {
		t.CloudReplicas = 1
	}
	return t
}

// Sim assembles a complete DDNN cluster — device nodes, the edge replicas
// for edge-tier models, a gateway and the cloud replicas — over a
// transport, feeding device sensors from a dataset. Sample IDs are
// dataset indices.
type Sim struct {
	// Devices are the in-process device nodes, in device order.
	Devices []*Device
	// Edges are the edge replicas; empty without an edge tier.
	Edges []*Edge
	// Clouds are the cloud replicas.
	Clouds []*Cloud
	// Gateway is the local aggregator fronting the hierarchy.
	Gateway *Gateway

	addrs         []string
	upstreamAddrs []string
	uploads       *uploadStore

	// Construction inputs retained so RestartEdge/RestartCloud can build
	// replacement replicas on the original addresses.
	model      *core.Model
	tr         transport.Transport
	logger     *slog.Logger
	cloudAddrs []string
	edgeCfg    EdgeConfig

	// mu serializes restarts with each other and with Close, and guards
	// the Edges/Clouds slice elements they replace. Callers that restart
	// replicas at runtime must read them through EdgeReplica/CloudReplica
	// (not the bare slices) to stay race-free.
	mu     sync.Mutex
	closed bool
}

// DatasetFeed builds a Feed serving one device's views from a dataset.
// The returned feed is safe for concurrent sessions. Frames are views of
// the dataset's storage (no copy); consumers must treat them as
// read-only, which the inference path guarantees.
func DatasetFeed(ds *dataset.Dataset, device int) Feed {
	return func(sampleID uint64) (*tensor.Tensor, error) {
		idx := int(sampleID)
		if idx < 0 || idx >= ds.Len() {
			return nil, fmt.Errorf("cluster: sample %d out of range [0,%d)", idx, ds.Len())
		}
		return ds.DeviceView(device, idx), nil
	}
}

// NewSim starts a single-replica hierarchy on the transport; it is
// NewReplicatedSim with the zero Topology.
func NewSim(model *core.Model, ds *dataset.Dataset, cfg GatewayConfig, tr transport.Transport, logger *slog.Logger) (*Sim, error) {
	return NewReplicatedSim(model, ds, cfg, Topology{}, tr, logger)
}

// NewReplicatedSim starts every node of the hierarchy on the transport —
// topo.CloudReplicas cloud nodes, topo.EdgeReplicas edge nodes for
// edge-tier models, one device node per sensor — and connects the
// gateway to its upstream replica pool: the edge tier for edge-tier
// models, the cloud tier otherwise. Every edge replica pools all cloud
// replicas. Addresses are synthesized as "device-N", "edge-N" and
// "cloud-N"; with a TCP transport pass explicit addresses via NewGateway
// instead.
func NewReplicatedSim(model *core.Model, ds *dataset.Dataset, cfg GatewayConfig, topo Topology, tr transport.Transport, logger *slog.Logger) (*Sim, error) {
	topo = topo.normalize()
	s := &Sim{uploads: newUploadStore(), model: model, tr: tr, logger: logger, edgeCfg: DefaultEdgeConfig()}
	if topo.Edge != nil {
		s.edgeCfg = *topo.Edge
	}
	addrs := make([]string, model.Cfg.Devices)
	for d := 0; d < model.Cfg.Devices; d++ {
		dev := NewDevice(model, d, uploadFeed(s.uploads, DatasetFeed(ds, d), d), logger)
		addr := fmt.Sprintf("device-%d", d)
		if err := dev.Serve(tr, addr); err != nil {
			s.Close()
			return nil, err
		}
		s.Devices = append(s.Devices, dev)
		addrs[d] = addr
	}
	s.cloudAddrs = make([]string, topo.CloudReplicas)
	for i := range s.cloudAddrs {
		s.cloudAddrs[i] = fmt.Sprintf("cloud-%d", i)
		cloud, err := s.startCloud(i)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.Clouds = append(s.Clouds, cloud)
	}
	upstream := s.cloudAddrs
	if model.Cfg.UseEdge {
		upstream = make([]string, topo.EdgeReplicas)
		for i := range upstream {
			upstream[i] = fmt.Sprintf("edge-%d", i)
			edge, err := s.newEdge(i)
			if err != nil {
				s.Close()
				return nil, err
			}
			s.Edges = append(s.Edges, edge)
			if err := edge.Serve(tr, upstream[i]); err != nil {
				s.Close()
				return nil, err
			}
		}
	}
	gw, err := NewGateway(context.Background(), model, cfg, tr, addrs, upstream, logger)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.Gateway = gw
	s.addrs = addrs
	s.upstreamAddrs = upstream
	return s, nil
}

// startCloud starts cloud replica i on its address, seeded with the
// fleet's model registry.
func (s *Sim) startCloud(i int) (*Cloud, error) {
	cloud := NewCloud(s.model, s.logger)
	cloud.name = fmt.Sprintf("cloud replica %d", i)
	s.adoptRegistry(cloud.reg)
	if err := cloud.Serve(s.tr, s.cloudAddrs[i]); err != nil {
		return nil, err
	}
	return cloud, nil
}

// newEdge builds edge replica i, seeded with the fleet's model registry
// and connected to every cloud replica, but not yet serving.
func (s *Sim) newEdge(i int) (*Edge, error) {
	edge, err := NewEdge(s.model, s.edgeCfg, s.logger)
	if err != nil {
		return nil, err
	}
	edge.name = fmt.Sprintf("edge replica %d", i)
	s.adoptRegistry(edge.reg)
	if err := edge.ConnectCloud(context.Background(), s.tr, s.cloudAddrs...); err != nil {
		return nil, err
	}
	return edge, nil
}

// DeviceAddrs returns the synthesized device addresses, in device order.
func (s *Sim) DeviceAddrs() []string { return append([]string(nil), s.addrs...) }

// UpstreamAddrs returns the addresses of the tier the gateway escalates
// to, in replica order.
func (s *Sim) UpstreamAddrs() []string { return append([]string(nil), s.upstreamAddrs...) }

// Edge returns the first edge replica, or nil without an edge tier.
func (s *Sim) Edge() *Edge {
	if len(s.Edges) == 0 {
		return nil
	}
	return s.Edges[0]
}

// Cloud returns the first cloud replica, or nil before construction
// finished.
func (s *Sim) Cloud() *Cloud {
	if len(s.Clouds) == 0 {
		return nil
	}
	return s.Clouds[0]
}

// EdgeReplica returns edge replica i (the current node serving
// "edge-i", which RestartEdge may have replaced), or nil out of range.
func (s *Sim) EdgeReplica(i int) *Edge {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.Edges) {
		return nil
	}
	return s.Edges[i]
}

// CloudReplica returns cloud replica i (the current node serving
// "cloud-i", which RestartCloud may have replaced), or nil out of range.
func (s *Sim) CloudReplica(i int) *Cloud {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.Clouds) {
		return nil
	}
	return s.Clouds[i]
}

// edgeCount returns the number of edge replica slots (fixed for the
// sim's lifetime; restarts replace slots, never resize).
func (s *Sim) edgeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.Edges)
}

// cloudCount returns the number of cloud replica slots.
func (s *Sim) cloudCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.Clouds)
}

// nodes returns every serving node of the hierarchy — the devices, then
// the current edge and cloud replicas — for fleet-wide registry
// operations. Restarts may replace a replica right after the call.
func (s *Sim) nodes() []*node {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*node, 0, len(s.Devices)+len(s.Edges)+len(s.Clouds))
	for _, d := range s.Devices {
		out = append(out, &d.node)
	}
	for _, e := range s.Edges {
		out = append(out, &e.node)
	}
	for _, c := range s.Clouds {
		out = append(out, &c.node)
	}
	return out
}

// replica returns the current node of an upstream tier's replica i, or
// nil out of range.
func (s *Sim) replica(tier wire.ExitPoint, i int) *node {
	if tier == wire.ExitEdge {
		if e := s.EdgeReplica(i); e != nil {
			return &e.node
		}
	} else if c := s.CloudReplica(i); c != nil {
		return &c.node
	}
	return nil
}

// setModelVersion rebases every node's model registry so the
// construction model is known fleet-wide under version v instead of the
// default 1. Called by NewEngine before traffic starts.
func (s *Sim) setModelVersion(v uint64) {
	for _, n := range s.nodes() {
		n.reg = newModelRegistry(s.model, v)
	}
	s.Gateway.reg = newModelRegistry(s.model, v)
}

// adoptRegistry seeds a replacement replica's registry from the
// gateway's, so a node restarted mid-lifecycle serves the fleet's
// current versions (and can resolve any version a live session pinned)
// instead of rebooting to the construction model alone.
func (s *Sim) adoptRegistry(r *modelRegistry) {
	if s.Gateway == nil {
		return
	}
	models, active := s.Gateway.reg.snapshot()
	r.adopt(models, active)
}

// RestartCloud hard-restarts cloud replica i: the old node is torn down
// (its listener and every link into it die, unlike the silent-failure
// mode of SetFailed) and a fresh replica starts on the same address.
// Downstream replica pools re-admit it lazily (a session's re-dial or a
// health-monitor probe), exactly as they would a rebooted host.
func (s *Sim) RestartCloud(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cluster: sim is closed")
	}
	if i < 0 || i >= len(s.Clouds) {
		return fmt.Errorf("cluster: cloud replica %d out of range [0,%d)", i, len(s.Clouds))
	}
	s.Clouds[i].Close()
	cloud, err := s.startCloud(i)
	if err != nil {
		return fmt.Errorf("cluster: restart cloud %d: %w", i, err)
	}
	s.Clouds[i] = cloud
	return nil
}

// RestartEdge hard-restarts edge replica i on its original address; see
// RestartCloud. The replacement is fully wired (cloud pool connected)
// before the old node is torn down, so a cloud replica that is
// unreachable at restart time fails the restart and leaves the old
// node serving.
func (s *Sim) RestartEdge(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("cluster: sim is closed")
	}
	if i < 0 || i >= len(s.Edges) {
		return fmt.Errorf("cluster: edge replica %d out of range [0,%d)", i, len(s.Edges))
	}
	edge, err := s.newEdge(i)
	if err != nil {
		return fmt.Errorf("cluster: restart edge %d: %w", i, err)
	}
	s.Edges[i].Close()
	if err := edge.Serve(s.tr, s.upstreamAddrs[i]); err != nil {
		edge.Close()
		return fmt.Errorf("cluster: restart edge %d: %w", i, err)
	}
	s.Edges[i] = edge
	return nil
}

// Close tears the whole cluster down.
func (s *Sim) Close() error {
	s.mu.Lock()
	s.closed = true
	edges := append([]*Edge(nil), s.Edges...)
	clouds := append([]*Cloud(nil), s.Clouds...)
	s.mu.Unlock()
	if s.Gateway != nil {
		s.Gateway.Close()
	}
	for _, d := range s.Devices {
		d.Close()
	}
	for _, e := range edges {
		e.Close()
	}
	for _, c := range clouds {
		c.Close()
	}
	return nil
}
