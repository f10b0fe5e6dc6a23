package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
)

// TestBatchCollectorMatchesSerial hammers a batching engine with
// concurrent Classify calls and checks every verdict against the
// per-sample baseline: coalescing sessions must never change results.
func TestBatchCollectorMatchesSerial(t *testing.T) {
	model, test := fixture(t)
	base, err := NewEngine(model, test, EngineConfig{
		Gateway: DefaultGatewayConfig(),
		Logger:  quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want := make([]*Result, test.Len())
	for i := range want {
		res, err := base.Classify(context.Background(), uint64(i))
		if err != nil {
			t.Fatalf("baseline sample %d: %v", i, err)
		}
		want[i] = res
	}

	eng, err := NewEngine(model, test, EngineConfig{
		Gateway:        DefaultGatewayConfig(),
		MaxConcurrency: 4,
		Batch:          BatchConfig{MaxBatch: 8, MaxLinger: 3 * time.Millisecond},
		Logger:         quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers*test.Len())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < test.Len(); i++ {
				id := (i + w) % test.Len()
				res, err := eng.Classify(context.Background(), uint64(id))
				if err != nil {
					errs <- fmt.Errorf("worker %d sample %d: %w", w, id, err)
					return
				}
				if res.Class != want[id].Class || res.Exit != want[id].Exit {
					errs <- fmt.Errorf("worker %d sample %d: got class %d exit %v, want %d %v",
						w, id, res.Class, res.Exit, want[id].Class, want[id].Exit)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// heldSample gates one sample ID on every device feed of a gated
// engine: a capture of that sample blocks until release is closed, so a
// test can hold one collector session in flight.
type heldSample struct {
	id        uint64
	entered   chan struct{} // closed when a device first reads the sample
	enterOnce sync.Once
	release   chan struct{}
	open      sync.Once
}

// unblock opens the gate; it is safe to call more than once.
func (h *heldSample) unblock() { h.open.Do(func() { close(h.release) }) }

// newGatedEngine serves a two-tier cluster on an in-memory transport
// whose device feeds hold sample heldID, behind a batching engine.
func newGatedEngine(t *testing.T, batch BatchConfig, heldID uint64) (*Engine, *heldSample) {
	t.Helper()
	model, test := fixture(t)
	tr := transport.NewMem()
	held := &heldSample{id: heldID, entered: make(chan struct{}), release: make(chan struct{})}
	addrs := make([]string, model.Cfg.Devices)
	var nodes []interface{ Close() error }
	for d := range addrs {
		base := DatasetFeed(test, d)
		feed := func(id uint64) (*tensor.Tensor, error) {
			if id == held.id {
				held.enterOnce.Do(func() { close(held.entered) })
				<-held.release
			}
			return base(id)
		}
		dev := NewDevice(model, d, feed, quietLogger())
		addrs[d] = fmt.Sprintf("gated-device-%d", d)
		if err := dev.Serve(tr, addrs[d]); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, dev)
	}
	cloud := NewCloud(model, quietLogger())
	if err := cloud.Serve(tr, "gated-cloud"); err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, cloud)
	gcfg := DefaultGatewayConfig()
	gcfg.DeviceTimeout = time.Minute // the held capture must not time out
	eng, err := AttachEngine(context.Background(), model, EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: 4,
		Batch:          batch,
		Logger:         quietLogger(),
	}, tr, addrs, []string{"gated-cloud"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		held.unblock()
		eng.Close()
		for _, n := range nodes {
			n.Close()
		}
	})
	return eng, held
}

// holdSession starts a Classify of the held sample and waits until its
// session is in flight, blocked in the device feed. The returned channel
// yields that call's error once the gate opens.
func holdSession(t *testing.T, eng *Engine, held *heldSample) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := eng.Classify(context.Background(), held.id)
		done <- err
	}()
	select {
	case <-held.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("held session never reached the device feed")
	}
	return done
}

// pendingOn returns the number of samples queued on the default lane.
func pendingOn(c *batchCollector) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lane := c.lanes[laneKey{level: ShedNone}]; lane != nil {
		return len(lane.pending)
	}
	return 0
}

// TestBatchCollectorIdleFlushesWithoutLinger pins the work-conserving
// policy: a lone Classify on an idle batching engine starts its session
// at once instead of lingering for company, so even a minute-long
// linger bound adds nothing to it.
func TestBatchCollectorIdleFlushesWithoutLinger(t *testing.T) {
	model, test := fixture(t)
	eng, err := NewEngine(model, test, EngineConfig{
		Gateway: DefaultGatewayConfig(),
		Batch:   BatchConfig{MaxBatch: 64, MaxLinger: time.Minute},
		Logger:  quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for id := uint64(0); id < 3; id++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		res, err := eng.Classify(ctx, id)
		cancel()
		if err != nil {
			t.Fatalf("lone Classify of sample %d on an idle engine: %v", id, err)
		}
		if res.SampleID != id {
			t.Errorf("got sample %d, want %d", res.SampleID, id)
		}
	}
}

// TestBatchCollectorCoalescesWhileBusy holds one collector session in
// flight and checks that calls arriving meanwhile gather into one
// batch, which flushes as soon as the held session finishes — long
// before the minute-long linger bound.
func TestBatchCollectorCoalescesWhileBusy(t *testing.T) {
	const heldID, k = 0, 5
	eng, held := newGatedEngine(t, BatchConfig{MaxBatch: 64, MaxLinger: time.Minute}, heldID)
	heldDone := holdSession(t, eng, held)

	type outcome struct {
		id  uint64
		res *Result
		err error
	}
	outs := make(chan outcome, k)
	for i := 1; i <= k; i++ {
		go func(id uint64) {
			res, err := eng.Classify(context.Background(), id)
			outs <- outcome{id, res, err}
		}(uint64(i))
	}
	deadline := time.Now().Add(10 * time.Second)
	for pendingOn(eng.collector) < k {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls queued behind the held session", pendingOn(eng.collector), k)
		}
		time.Sleep(time.Millisecond)
	}
	before := eng.gw.nextSession.Load()
	held.unblock()
	if err := <-heldDone; err != nil {
		t.Fatalf("held session: %v", err)
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < k; i++ {
		select {
		case o := <-outs:
			if o.err != nil {
				t.Fatalf("sample %d: %v", o.id, o.err)
			}
			if o.res.SampleID != o.id {
				t.Errorf("sample %d answered as %d", o.id, o.res.SampleID)
			}
		case <-timeout:
			t.Fatalf("queued calls still waiting 10 s after the held session finished")
		}
	}
	if n := eng.gw.nextSession.Load() - before; n != 1 {
		t.Errorf("%d calls queued behind a busy engine ran as %d sessions, want 1", k, n)
	}
}

// TestBatchCollectorLingerFlushesPartialBatch checks the linger bound
// while a collector session is in flight: a call queued behind a
// session that does not finish is answered after about MaxLinger, not
// held until the busy session ends.
func TestBatchCollectorLingerFlushesPartialBatch(t *testing.T) {
	const heldID = 0
	eng, held := newGatedEngine(t, BatchConfig{MaxBatch: 64, MaxLinger: 20 * time.Millisecond}, heldID)
	heldDone := holdSession(t, eng, held)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := eng.Classify(ctx, 1)
	if err != nil {
		t.Fatalf("Classify queued behind a held session: %v", err)
	}
	if res.SampleID != 1 {
		t.Errorf("got sample %d, want 1", res.SampleID)
	}
	select {
	case <-heldDone:
		t.Fatal("held session finished early; the linger path was not exercised")
	default:
	}
	held.unblock()
	if err := <-heldDone; err != nil {
		t.Fatalf("held session: %v", err)
	}
}

// TestEngineClassifyCloseRace hammers Classify against Close (run with
// -race in CI): Close must never return while a session is still
// registering — the documented sync.WaitGroup Add-vs-Wait misuse of the
// old atomic-flag handshake — and late calls must fail with ErrClosed,
// not crash or hang.
func TestEngineClassifyCloseRace(t *testing.T) {
	model, test := fixture(t)
	for _, batch := range []int{0, 4} {
		for iter := 0; iter < 6; iter++ {
			eng, err := NewEngine(model, test, EngineConfig{
				Gateway:        DefaultGatewayConfig(),
				MaxConcurrency: 4,
				Batch:          BatchConfig{MaxBatch: batch, MaxLinger: time.Millisecond},
				Logger:         quietLogger(),
			}, transport.NewMem())
			if err != nil {
				t.Fatal(err)
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					for i := 0; i < 8; i++ {
						_, err := eng.Classify(context.Background(), uint64((w*8+i)%test.Len()))
						if err != nil && !errors.Is(err, ErrClosed) {
							errs <- fmt.Errorf("batch %d worker %d: %w", batch, w, err)
							return
						}
						if errors.Is(err, ErrClosed) {
							return
						}
					}
				}(w)
			}
			close(start)
			// Close while the workers are mid-flight.
			if iter%2 == 0 {
				time.Sleep(time.Duration(iter) * time.Millisecond)
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if _, err := eng.Classify(context.Background(), 0); !errors.Is(err, ErrClosed) {
				t.Errorf("Classify after Close = %v, want ErrClosed", err)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		}
	}
}

// TestNewGatewayRejectsTooManyDevices pins the uint16 mask-overflow fix:
// a hierarchy with more devices than wire.MaxDevices must be rejected
// with the typed error instead of silently aliasing mask bits.
func TestNewGatewayRejectsTooManyDevices(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Devices = 17
	cfg.DeviceFilters = 1
	cfg.CloudFilters = 1
	model, err := core.NewModel(cfg)
	if err != nil {
		t.Fatalf("building 17-device model: %v", err)
	}
	addrs := make([]string, cfg.Devices)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("overflow-device-%d", i)
	}
	_, err = NewGateway(context.Background(), model, DefaultGatewayConfig(), transport.NewMem(), addrs, []string{"overflow-cloud"}, quietLogger())
	if !errors.Is(err, ErrTooManyDevices) {
		t.Fatalf("NewGateway with 17 devices: err = %v, want ErrTooManyDevices", err)
	}
}

// TestZeroTimeoutConfigDoesNotExpireInstantly pins the link.wait fix: a
// zero-value GatewayConfig (no explicit timeouts) must classify normally
// — previously time.NewTimer(0) made every round trip expire at once.
func TestZeroTimeoutConfigDoesNotExpireInstantly(t *testing.T) {
	model, test := fixture(t)
	cfg := GatewayConfig{Threshold: -1} // force escalation; every timeout field zero
	sim, err := NewSim(model, test, cfg, transport.NewMem(), quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	res, err := sim.Gateway.Classify(context.Background(), 0)
	if err != nil {
		t.Fatalf("zero-timeout config: %v", err)
	}
	if res.Exit == 0 {
		t.Error("no exit recorded")
	}
}

// TestWireBytesBothDirections checks that the gateway reports traffic in
// both directions and that they are distinct counters: uplink bytes
// (summaries, uploads) dominate a forced-escalation session, while the
// downlink carries the much smaller request frames.
func TestWireBytesBothDirections(t *testing.T) {
	cfg := DefaultGatewayConfig()
	cfg.Threshold = -1 // force feature uploads so the uplink dwarfs the downlink
	sim := newSim(t, cfg)
	if _, err := sim.Gateway.Classify(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	up, down := sim.Gateway.WireBytesUp(), sim.Gateway.WireBytesDown()
	if up <= 0 || down <= 0 {
		t.Fatalf("WireBytesUp=%d WireBytesDown=%d, want both positive", up, down)
	}
	if up <= down {
		t.Errorf("uplink (%d B) should exceed downlink (%d B) when features are uploaded", up, down)
	}
}
