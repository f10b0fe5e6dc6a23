package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// The edge fixture trains one small three-tier DDNN once and shares it
// across tests; like the two-tier fixture, these tests exercise protocol
// behaviour, not model quality.
var (
	edgeFixtureOnce  sync.Once
	edgeFixtureModel *core.Model
	edgeFixtureTest  *dataset.Dataset
)

func edgeFixture(t *testing.T) (*core.Model, *dataset.Dataset) {
	t.Helper()
	edgeFixtureOnce.Do(func() {
		dcfg := dataset.DefaultConfig()
		dcfg.Train, dcfg.Test = 120, 40
		train, test := dataset.MustGenerate(dcfg)
		cfg := core.DefaultConfig()
		cfg.UseEdge = true
		cfg.CloudFilters = 8
		m := core.MustNewModel(cfg)
		tc := core.DefaultTrainConfig()
		tc.Epochs = 3
		if _, err := m.Train(train, tc); err != nil {
			panic(err)
		}
		edgeFixtureModel, edgeFixtureTest = m, test
	})
	return edgeFixtureModel, edgeFixtureTest
}

func newEdgeSim(t *testing.T, cfg GatewayConfig) *Sim {
	t.Helper()
	model, test := edgeFixture(t)
	sim, err := NewSim(model, test, cfg, transport.NewMem(), quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sim.Close() })
	return sim
}

func TestEdgeSimStartsThreeTierTopology(t *testing.T) {
	sim := newEdgeSim(t, DefaultGatewayConfig())
	if sim.Edge() == nil {
		t.Fatal("edge-tier sim has no edge node")
	}
	if addrs := sim.UpstreamAddrs(); len(addrs) != 1 || addrs[0] != "edge-0" {
		t.Errorf("upstream addrs = %v, want [edge-0]", addrs)
	}
	p := sim.Gateway.Pipeline()
	want := []wire.ExitPoint{wire.ExitLocal, wire.ExitEdge, wire.ExitCloud}
	got := p.Exits()
	if len(got) != len(want) {
		t.Fatalf("pipeline exits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pipeline exits = %v, want %v", got, want)
		}
	}
}

// TestEdgeTierStagesAreReachable pins each tier of the pipeline with
// degenerate thresholds: every sample must exit exactly where the
// thresholds dictate.
func TestEdgeTierStagesAreReachable(t *testing.T) {
	cases := []struct {
		name         string
		localT, edgT float64
		want         wire.ExitPoint
	}{
		{"all local", 1, 1, wire.ExitLocal},
		{"all edge", -1, 1, wire.ExitEdge},
		{"all cloud", -1, -1, wire.ExitCloud},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultGatewayConfig()
			cfg.Threshold = tc.localT
			cfg.EdgeThreshold = tc.edgT
			sim := newEdgeSim(t, cfg)
			for id := 0; id < 5; id++ {
				res, err := sim.Gateway.Classify(context.Background(), uint64(id))
				if err != nil {
					t.Fatalf("sample %d: %v", id, err)
				}
				if res.Exit != tc.want {
					t.Errorf("sample %d exit = %v, want %v", id, res.Exit, tc.want)
				}
				if res.Class < 0 || res.Class >= dataset.NumClasses {
					t.Errorf("sample %d class %d out of range", id, res.Class)
				}
			}
		})
	}
}

func TestEdgeTierMetersBothHops(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1
	cfg.EdgeThreshold = -1 // force the full three-stage escalation
	sim := newEdgeSim(t, cfg)
	model, _ := edgeFixture(t)

	if _, err := sim.Gateway.Classify(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	devices := int64(model.Cfg.Devices)
	wantSummary := devices * int64(wire.SummaryPayloadBytes(model.Cfg.Classes))
	if got := sim.Gateway.Meter.Get("local-summary"); got != wantSummary {
		t.Errorf("local-summary bytes = %d, want %d", got, wantSummary)
	}
	featBytes := int64(model.Cfg.DeviceFilters*model.Cfg.FeatureSize()) / 8
	if got := sim.Gateway.Meter.Get("edge-upload"); got != devices*featBytes {
		t.Errorf("edge-upload bytes = %d, want %d (= n·f·o/8 on the first hop)", got, devices*featBytes)
	}
	if got := sim.Gateway.Meter.Get("cloud-upload"); got != 0 {
		t.Errorf("gateway cloud-upload bytes = %d, want 0 (the edge owns the second hop)", got)
	}
	edgeBytes := int64(model.Cfg.EdgeFilters*(model.Cfg.FeatureH()/2)*(model.Cfg.FeatureW()/2)) / 8
	if got := sim.Edge().Meter.Get("cloud-upload"); got != edgeBytes {
		t.Errorf("edge→cloud bytes = %d, want %d (bit-packed edge features)", got, edgeBytes)
	}
}

func TestEdgeExitSendsNothingToCloud(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1
	cfg.EdgeThreshold = 1 // every escalated sample answered at the edge
	sim := newEdgeSim(t, cfg)
	for id := 0; id < 5; id++ {
		if _, err := sim.Gateway.Classify(context.Background(), uint64(id)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sim.Edge().Meter.Get("cloud-upload"); got != 0 {
		t.Errorf("edge→cloud bytes = %d, want 0 when the edge answers everything", got)
	}
}

func TestEdgeDownSurfacesTypedError(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1 // force escalation
	cfg.EdgeTimeout = 300 * time.Millisecond
	sim := newEdgeSim(t, cfg)
	sim.Edge().SetFailed(true)

	start := time.Now()
	_, err := sim.Gateway.Classify(context.Background(), 0)
	if !errors.Is(err, ErrEdgeUnavailable) {
		t.Errorf("err = %v, want ErrEdgeUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("edge-down classification took %v; must fail fast", elapsed)
	}

	// Confident samples never touch the edge and keep working.
	cfg2 := DefaultGatewayConfig()
	cfg2.Threshold = 1
	model, test := edgeFixture(t)
	sim2, err := NewSim(model, test, cfg2, transport.NewMem(), quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer sim2.Close()
	sim2.Edge().SetFailed(true)
	res, err := sim2.Gateway.Classify(context.Background(), 0)
	if err != nil {
		t.Fatalf("local-exit classification failed with edge down: %v", err)
	}
	if res.Exit != wire.ExitLocal {
		t.Errorf("exit = %v, want local", res.Exit)
	}
}

// TestEdgeAnswersWhenCloudDown exercises the masked-degradation path:
// with the WAN tier gone, escalated samples are answered at the edge
// exit instead of failing, so the system keeps serving at reduced
// accuracy.
func TestEdgeAnswersWhenCloudDown(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1
	cfg.EdgeThreshold = -1 // every sample wants the cloud
	sim := newEdgeSim(t, cfg)
	sim.Cloud().Close()

	start := time.Now()
	res, err := sim.Gateway.Classify(context.Background(), 0)
	if err != nil {
		t.Fatalf("classification failed with the cloud down: %v", err)
	}
	if res.Exit != wire.ExitEdge {
		t.Errorf("exit = %v, want edge fallback with the cloud down", res.Exit)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cloud-down fallback took %v; must degrade fast", elapsed)
	}
}

func TestEdgeHealthMonitorDrivesUpstreamState(t *testing.T) {
	model, test := edgeFixture(t)
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1 // escalations exercise the upstream state
	cfg.EdgeTimeout = 500 * time.Millisecond
	cfg.MaxFailures = 0
	eng, err := NewEngine(model, test, EngineConfig{Gateway: cfg, Logger: quietLogger()}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	hm, err := eng.StartHealthMonitor(context.Background(), 25*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hm.Stop()

	eng.Edge().SetFailed(true)
	deadline := time.Now().Add(3 * time.Second)
	for !eng.Gateway().UpstreamDown() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !eng.Gateway().UpstreamDown() {
		t.Fatal("health monitor never marked the edge down")
	}

	// Escalations now fail fast with the typed error, well under the
	// escalation timeout.
	start := time.Now()
	_, err = eng.Classify(context.Background(), 0)
	if !errors.Is(err, ErrEdgeUnavailable) {
		t.Errorf("err = %v, want ErrEdgeUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > cfg.EdgeTimeout {
		t.Errorf("marked-down escalation took %v, want < %v", elapsed, cfg.EdgeTimeout)
	}

	// Recovery flips the flag back and sessions flow again.
	eng.Edge().SetFailed(false)
	deadline = time.Now().Add(3 * time.Second)
	for eng.Gateway().UpstreamDown() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if eng.Gateway().UpstreamDown() {
		t.Fatal("edge did not recover")
	}
	if _, err := eng.Classify(context.Background(), 1); err != nil {
		t.Fatalf("classification after recovery: %v", err)
	}
}

// TestAttachEngineToEdgeTierOverTCP runs the full three-tier topology as
// it would deploy: every node on its own TCP listener (ddnn-device /
// ddnn-edge / ddnn-cloud style) with the engine attached from outside.
func TestAttachEngineToEdgeTierOverTCP(t *testing.T) {
	model, test := edgeFixture(t)
	tr := transport.TCP{}

	addrs := make([]string, model.Cfg.Devices)
	for d := 0; d < model.Cfg.Devices; d++ {
		dev := NewDevice(model, d, DatasetFeed(test, d), quietLogger())
		if err := dev.Serve(tr, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		addrs[d] = dev.Addr()
	}
	cloud := NewCloud(model, quietLogger())
	if err := cloud.Serve(tr, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	edge, err := NewEdge(model, DefaultEdgeConfig(), quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	if err := edge.ConnectCloud(context.Background(), tr, cloud.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := edge.Serve(tr, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = -1
	gcfg.EdgeThreshold = -1 // drive the full device→edge→cloud path
	eng, err := AttachEngine(context.Background(), model, EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: 4,
		Logger:         quietLogger(),
	}, tr, addrs, []string{edge.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	results, err := eng.ClassifyBatch(context.Background(), []uint64{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Exit != wire.ExitCloud {
			t.Errorf("sample %d exit = %v, want cloud over TCP three-tier", i, res.Exit)
		}
	}
	// The attached engine exposes no in-process edge node.
	if eng.Edge() != nil {
		t.Error("attached engine must not expose an in-process edge")
	}
}

// TestTwoGatewaysShareOneEdge pins the session-ID namespacing of the
// edge's shared cloud link: two gateways allocate overlapping session
// IDs (both start at 1), escalate different samples through one edge
// node concurrently, and every verdict must come back for the sample
// that was asked — the edge re-keys its upstream sessions so downstream
// IDs never collide on the cloud link.
func TestTwoGatewaysShareOneEdge(t *testing.T) {
	model, test := edgeFixture(t)
	tr := transport.NewMem()

	addrs := make([]string, model.Cfg.Devices)
	for d := 0; d < model.Cfg.Devices; d++ {
		dev := NewDevice(model, d, DatasetFeed(test, d), quietLogger())
		addrs[d] = fmt.Sprintf("2gw-device-%d", d)
		if err := dev.Serve(tr, addrs[d]); err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
	}
	cloud := NewCloud(model, quietLogger())
	if err := cloud.Serve(tr, "2gw-cloud"); err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	edge, err := NewEdge(model, DefaultEdgeConfig(), quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	if err := edge.ConnectCloud(context.Background(), tr, "2gw-cloud"); err != nil {
		t.Fatal(err)
	}
	if err := edge.Serve(tr, "2gw-edge"); err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = -1
	gcfg.EdgeThreshold = -1 // all sessions traverse the shared cloud link
	var gws [2]*Gateway
	for i := range gws {
		gw, err := NewGateway(context.Background(), model, gcfg, tr, addrs, []string{"2gw-edge"}, quietLogger())
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		gws[i] = gw
	}

	// Baseline from one gateway, serially.
	const samples = 8
	want := make([]*Result, samples)
	for id := 0; id < samples; id++ {
		res, err := gws[0].Classify(context.Background(), uint64(id))
		if err != nil {
			t.Fatalf("baseline sample %d: %v", id, err)
		}
		want[id] = res
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*samples)
	for g, gw := range gws {
		wg.Add(1)
		go func(g int, gw *Gateway) {
			defer wg.Done()
			// Opposite orders maximize same-session-ID overlap in flight.
			for i := 0; i < samples; i++ {
				id := i
				if g == 1 {
					id = samples - 1 - i
				}
				res, err := gw.Classify(context.Background(), uint64(id))
				if err != nil {
					errs <- fmt.Errorf("gateway %d sample %d: %w", g, id, err)
					return
				}
				if res.SampleID != uint64(id) {
					errs <- fmt.Errorf("gateway %d asked for sample %d, got %d", g, id, res.SampleID)
					return
				}
				if res.Class != want[id].Class || res.Exit != want[id].Exit {
					errs <- fmt.Errorf("gateway %d sample %d: class/exit %d/%v, want %d/%v",
						g, id, res.Class, res.Exit, want[id].Class, want[id].Exit)
					return
				}
			}
		}(g, gw)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCloudRejectsMismatchedTierMessages(t *testing.T) {
	// A two-tier cloud must reject edge feature maps, and an edge-tier
	// cloud must reject device feature maps and maps of any other shape:
	// the hierarchy is part of the protocol contract. Each mismatch earns
	// a typed 400 for its session, and the connection keeps serving.
	twoTier, _ := fixture(t)
	threeTier, _ := edgeFixture(t)
	badShape := &wire.Escalation{Session: 1, Devices: 1, F: 1, H: 1, W: 1,
		SampleIDs: []uint64{1}, Masks: []uint16{1}, Bits: make([]byte, 1)}
	cases := []struct {
		name  string
		model *core.Model
		msg   *wire.Escalation
		valid *wire.Escalation
	}{
		{"two-tier rejects Edge-shaped Escalation", twoTier, edgeEscalationFor(threeTier, 1, 1), escalationFor(twoTier, 2, 5)},
		{"edge-tier rejects Classify escalation", threeTier, escalationFor(threeTier, 1, 1), edgeEscalationFor(threeTier, 2, 5)},
		{"edge-tier rejects bad shape", threeTier, badShape, edgeEscalationFor(threeTier, 2, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := transport.NewMem()
			cloud := NewCloud(tc.model, quietLogger())
			if err := cloud.Serve(tr, "cloud-tier"); err != nil {
				t.Fatal(err)
			}
			defer cloud.Close()
			conn, err := tr.Dial(context.Background(), "cloud-tier")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := wire.Encode(conn, tc.msg); err != nil {
				t.Fatal(err)
			}
			msg, err := wire.Decode(conn)
			if err != nil {
				t.Fatal(err)
			}
			if e, ok := msg.(*wire.Error); !ok || e.Code != 400 || e.Session != 1 {
				t.Fatalf("cloud replied %+v, want Error 400 for session 1", msg)
			}
			if _, err := wire.Encode(conn, tc.valid); err != nil {
				t.Fatal(err)
			}
			msg, err = wire.Decode(conn)
			if err != nil {
				t.Fatal(err)
			}
			rb, ok := msg.(*wire.ResultBatch)
			if !ok || rb.Session != 2 || len(rb.Verdicts) != 1 || rb.Verdicts[0].SampleID != 5 || rb.Verdicts[0].Exit != wire.ExitCloud {
				t.Fatalf("valid escalation after a mismatched one answered %+v, want one cloud verdict for sample 5", msg)
			}
		})
	}
}

// TestMalformedEscalationKeepsConnection sends each upstream tier — a
// two-tier cloud, an edge and a three-tier cloud behind it — an
// escalation whose feature bytes do not match its masks: the receiver
// must answer a typed 400 for that session and keep serving the
// connection, so the next valid escalation still gets its verdicts.
func TestMalformedEscalationKeepsConnection(t *testing.T) {
	twoTier, _ := fixture(t)
	threeTier, _ := edgeFixture(t)
	cases := []struct {
		name  string
		model *core.Model
		esc   func(model *core.Model, session, sampleID uint64) *wire.Escalation
		serve func(tr transport.Transport, addr string) (func() error, error)
	}{
		{"cloud", twoTier, escalationFor, func(tr transport.Transport, addr string) (func() error, error) {
			c := NewCloud(twoTier, quietLogger())
			return c.Close, c.Serve(tr, addr)
		}},
		{"edge", threeTier, escalationFor, func(tr transport.Transport, addr string) (func() error, error) {
			e, err := NewEdge(threeTier, DefaultEdgeConfig(), quietLogger())
			if err != nil {
				return nil, err
			}
			return e.Close, e.Serve(tr, addr)
		}},
		{"edge-tier cloud", threeTier, edgeEscalationFor, func(tr transport.Transport, addr string) (func() error, error) {
			c := NewCloud(threeTier, quietLogger())
			return c.Close, c.Serve(tr, addr)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := transport.NewMem()
			stop, err := tc.serve(tr, "upstream")
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			conn, err := tr.Dial(context.Background(), "upstream")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			bad := tc.esc(tc.model, 1, 5)
			bad.Bits = bad.Bits[:len(bad.Bits)-1] // one byte short of the masks
			if _, err := wire.Encode(conn, bad); err != nil {
				t.Fatal(err)
			}
			msg, err := wire.Decode(conn)
			if err != nil {
				t.Fatal(err)
			}
			if e, ok := msg.(*wire.Error); !ok || e.Code != 400 || e.Session != 1 {
				t.Fatalf("malformed escalation answered %+v, want Error 400 for session 1", msg)
			}
			if _, err := wire.Encode(conn, tc.esc(tc.model, 2, 5)); err != nil {
				t.Fatal(err)
			}
			msg, err = wire.Decode(conn)
			if err != nil {
				t.Fatal(err)
			}
			rb, ok := msg.(*wire.ResultBatch)
			if !ok || rb.Session != 2 || len(rb.Verdicts) != 1 || rb.Verdicts[0].SampleID != 5 {
				t.Fatalf("valid escalation after a malformed one answered %+v, want one verdict for sample 5", msg)
			}
		})
	}
}
