package cluster

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// heldSession tags the frames TestNodeRuntime parks in a node's handler
// to keep a request in flight.
const heldSession = 99

// nodeUnderTest is one serving node started on a mem transport, with a
// request its tier answers.
type nodeUnderTest struct {
	n        *node
	valid    wire.Message
	answered func(wire.Message) bool
	// stop closes the node and anything else start built.
	stop func()
}

// nodeCase starts one tier's node on the transport at address "node".
// A non-nil upstream is the model of a cloud the test serves at
// "cloud" before start runs, and closes only after the node's
// goroutines are checked, so a node that leaks its upstream links is
// caught.
type nodeCase struct {
	name     string
	upstream *core.Model
	start    func(t *testing.T, tr transport.Transport) nodeUnderTest
}

// nodeCases covers every listener of the hierarchy: device, edge (with
// its cloud pool), cloud and the gateway's registration plane.
func nodeCases(t *testing.T) []nodeCase {
	twoTier, test := fixture(t)
	threeTier, _ := edgeFixture(t)
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	resultFor := func(session uint64) func(wire.Message) bool {
		return func(m wire.Message) bool {
			rb, ok := m.(*wire.ResultBatch)
			return ok && rb.Session == session && len(rb.Verdicts) == 1 && rb.Verdicts[0].SampleID == 5
		}
	}
	return []nodeCase{
		{"device", nil, func(t *testing.T, tr transport.Transport) nodeUnderTest {
			d := NewDevice(twoTier, 0, DatasetFeed(test, 0), quietLogger())
			must(t, d.Serve(tr, "node"))
			return nodeUnderTest{
				n:     &d.node,
				valid: &wire.CaptureBatch{Session: 2, SampleIDs: []uint64{5}},
				answered: func(m wire.Message) bool {
					sb, ok := m.(*wire.SummaryBatch)
					return ok && sb.Session == 2 && sb.Count == 1
				},
				stop: func() { d.Close() },
			}
		}},
		{"edge", threeTier, func(t *testing.T, tr transport.Transport) nodeUnderTest {
			e, err := NewEdge(threeTier, DefaultEdgeConfig(), quietLogger())
			must(t, err)
			must(t, e.ConnectCloud(context.Background(), tr, "cloud"))
			must(t, e.Serve(tr, "node"))
			return nodeUnderTest{
				n:        &e.node,
				valid:    escalationFor(threeTier, 2, 5),
				answered: resultFor(2),
				stop:     func() { e.Close() },
			}
		}},
		{"cloud", nil, func(t *testing.T, tr transport.Transport) nodeUnderTest {
			c := NewCloud(twoTier, quietLogger())
			must(t, c.Serve(tr, "node"))
			return nodeUnderTest{
				n:        &c.node,
				valid:    escalationFor(twoTier, 2, 5),
				answered: resultFor(2),
				stop:     func() { c.Close() },
			}
		}},
		{"registration", twoTier, func(t *testing.T, tr transport.Transport) nodeUnderTest {
			g, err := NewGateway(context.Background(), twoTier, DefaultGatewayConfig(), tr, nil, []string{"cloud"}, quietLogger())
			must(t, err)
			must(t, g.ServeRegistration(tr, "node"))
			return nodeUnderTest{
				n: &g.registration,
				// Vacating an absent slot is acknowledged like any goodbye.
				valid: &wire.DeviceGoodbye{NodeID: "d0", Slot: 0},
				answered: func(m wire.Message) bool {
					w, ok := m.(*wire.DeviceWelcome)
					return ok && w.Slot == 0 && w.ConfigVersion > 1
				},
				stop: func() { g.Close() },
			}
		}},
	}
}

// holdFrames wraps a node's handler so frames of heldSession park until
// release is closed or the node starts closing, keeping a request in
// flight on demand. It must run before the first connection is dialed.
func holdFrames(n *node, release <-chan struct{}) {
	inner := n.handler
	n.handler = func(send func(wire.Message) error, msg wire.Message) {
		if sessionOf(msg) == heldSession {
			for !nodeClosing(n) {
				select {
				case <-release:
					inner(send, msg)
					return
				case <-time.After(time.Millisecond):
				}
			}
		}
		inner(send, msg)
	}
}

func nodeClosing(n *node) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

func exchange(t *testing.T, conn net.Conn, m wire.Message) wire.Message {
	t.Helper()
	if _, err := wire.Encode(conn, m); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := wire.Decode(conn)
	if err != nil {
		t.Fatalf("reply to %v: %v", m.MsgType(), err)
	}
	return reply
}

// waitActive polls until exactly want frames are in flight.
func waitActive(t *testing.T, n *node, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n.active.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight = %d, want %d", n.active.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNodeRuntime checks the shared node runtime on every listener of
// the hierarchy: heartbeat echo, typed rejection of unexpected frames
// without losing the connection, silent failure, Drain in both its
// outcomes, idempotent Close, and no goroutine left behind.
func TestNodeRuntime(t *testing.T) {
	for _, tc := range nodeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("serve", func(t *testing.T) { checkNodeServes(t, tc) })
			t.Run("drain deadline", func(t *testing.T) { checkNodeDrainDeadline(t, tc) })
		})
	}
}

// checkNodeServes drives one node through its whole life on a single
// connection, ending in a Drain that waits for an in-flight request.
func checkNodeServes(t *testing.T, tc nodeCase) {
	tr := transport.NewMem()
	start := startUpstream(t, tr, tc.upstream)
	nut := tc.start(t, tr)
	release := make(chan struct{})
	holdFrames(nut.n, release)
	conn, err := tr.Dial(context.Background(), "node")
	if err != nil {
		t.Fatal(err)
	}

	if hb, ok := exchange(t, conn, &wire.Heartbeat{NodeID: "probe", Seq: 1}).(*wire.Heartbeat); !ok || hb.Seq != 1 {
		t.Fatalf("heartbeat answered %+v, want echo of seq 1", hb)
	}
	if e, ok := exchange(t, conn, &wire.ResultBatch{Session: 7}).(*wire.Error); !ok || e.Code != 400 || e.Session != 7 {
		t.Fatalf("unexpected frame answered %+v, want Error 400 for session 7", e)
	}
	if reply := exchange(t, conn, nut.valid); !nut.answered(reply) {
		t.Fatalf("valid %v answered %+v", nut.valid.MsgType(), reply)
	}

	nut.n.SetFailed(true)
	if !nut.n.Failed() {
		t.Fatal("Failed() = false after SetFailed(true)")
	}
	if _, err := wire.Encode(conn, &wire.Heartbeat{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if m, err := wire.Decode(conn); err == nil {
		t.Fatalf("failed node answered %+v", m)
	}
	nut.n.SetFailed(false)
	if hb, ok := exchange(t, conn, &wire.Heartbeat{Seq: 3}).(*wire.Heartbeat); !ok || hb.Seq != 3 {
		t.Fatalf("recovered node answered %+v, want echo of seq 3", hb)
	}

	// Drain waits for the in-flight request, whose reply still
	// goes out before the node closes.
	if _, err := wire.Encode(conn, &wire.ResultBatch{Session: heldSession}); err != nil {
		t.Fatal(err)
	}
	waitActive(t, nut.n, 1)
	drained := make(chan error, 1)
	go func() { drained <- nut.n.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if m, err := wire.Decode(conn); err != nil {
		t.Fatalf("held request's reply: %v", err)
	} else if e, ok := m.(*wire.Error); !ok || e.Session != heldSession {
		t.Fatalf("held request answered %+v", m)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	if err := nut.n.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if err := nut.n.Close(); err != nil {
		t.Fatalf("third Close = %v", err)
	}
	conn.Close()
	nut.stop()
	waitGoroutines(t, start)
}

// checkNodeDrainDeadline checks that Drain gives up when its context
// expires with a request still in flight, closes the node anyway, and
// reports the typed deadline error.
func checkNodeDrainDeadline(t *testing.T, tc nodeCase) {
	tr := transport.NewMem()
	start := startUpstream(t, tr, tc.upstream)
	nut := tc.start(t, tr)
	holdFrames(nut.n, nil) // parked until the node closes
	conn, err := tr.Dial(context.Background(), "node")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Encode(conn, &wire.ResultBatch{Session: heldSession}); err != nil {
		t.Fatal(err)
	}
	waitActive(t, nut.n, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := nut.n.Drain(ctx); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Drain = %v, want ErrDeadlineExceeded", err)
	}
	if !nodeClosing(nut.n) {
		t.Fatal("node still open after an expired Drain")
	}
	conn.Close()
	nut.stop()
	waitGoroutines(t, start)
}

// startUpstream serves a cloud for model at "cloud" until the test ends
// (nothing for a nil model) and returns the goroutine count to return
// to once the node under test has closed.
func startUpstream(t *testing.T, tr transport.Transport, model *core.Model) int {
	if model != nil {
		c := NewCloud(model, quietLogger())
		if err := c.Serve(tr, "cloud"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
	}
	return runtime.NumGoroutine()
}

// waitGoroutines polls until the goroutine count is back at (or below)
// start, failing with a stack dump if it never gets there.
func waitGoroutines(t *testing.T, start int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d, started with %d\n%s", runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServeRegistrationLifecycle(t *testing.T) {
	model, _ := fixture(t)
	tr := transport.NewMem()
	c := NewCloud(model, quietLogger())
	if err := c.Serve(tr, "cloud"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	newGateway := func() *Gateway {
		g, err := NewGateway(context.Background(), model, DefaultGatewayConfig(), tr, nil, []string{"cloud"}, quietLogger())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	g := newGateway()
	if err := g.ServeRegistration(tr, "reg"); err != nil {
		t.Fatal(err)
	}
	if err := g.ServeRegistration(tr, "reg-2"); err == nil || !strings.Contains(err.Error(), "already serving") {
		t.Fatalf("second ServeRegistration = %v, want an already-serving error", err)
	}
	g.Close()

	closed := newGateway()
	closed.Close()
	if err := closed.ServeRegistration(tr, "reg-3"); !errors.Is(err, ErrClosed) {
		t.Fatalf("ServeRegistration after Close = %v, want ErrClosed", err)
	}
	if _, err := tr.Dial(context.Background(), "reg-3"); err == nil {
		t.Fatal("a closed gateway left a registration listener behind")
	}
}
