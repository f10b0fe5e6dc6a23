package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// drainPollInterval is how often awaitIdle re-checks a node's in-flight
// counter while draining.
const drainPollInterval = 5 * time.Millisecond

// node is the serving runtime every tier shares. The tiers of a DDNN
// differ only in which section of the jointly trained network they run
// (§III-A), so device, edge and cloud nodes — and the gateway's
// registration plane — embed one node and contribute only their frame
// handler. The node owns the listener and connection set, the model
// registry, the tensor pool, the simulated-failure flag and the
// in-flight counter.
//
// Each connection's loop echoes Heartbeat frames itself, stays silent
// while the node is failed, and runs every other frame in its own
// goroutine through the handler, so one connection carries any number
// of concurrent sessions. Replies are serialized through a
// per-connection write lock.
type node struct {
	name   string // error prefix, e.g. "device 3" or "cloud replica 0"
	logger *slog.Logger
	reg    *modelRegistry
	pool   *tensor.Pool

	// handler answers one non-heartbeat frame; send writes a reply on
	// the frame's connection.
	handler func(send func(wire.Message) error, msg wire.Message)
	// onClose, when set, runs once during Close after the connections
	// are closed but before Close waits for their handlers — the edge
	// closes its cloud pool here, or in-flight relays would hold Close
	// for a full cloud timeout.
	onClose func()

	failed atomic.Bool
	// active counts in-flight frame handlers; Drain and rolling reloads
	// poll it to zero.
	active atomic.Int64

	mu       sync.Mutex // guards listener, conns and closed
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup // the accept loop and every connection loop
}

// init prepares an embedded node; logger must already carry the node's
// attributes.
func (n *node) init(name string, logger *slog.Logger, reg *modelRegistry, handler func(func(wire.Message) error, wire.Message)) {
	n.name = name
	n.logger = logger
	n.reg = reg
	n.pool = tensor.NewPool()
	n.handler = handler
	n.conns = make(map[net.Conn]struct{})
}

// Serve starts accepting connections on the transport address. It
// returns once the listener is active, ErrClosed after Close, and an
// error if the node is already serving.
func (n *node) Serve(tr transport.Transport, addr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("cluster: %s: %w", n.name, ErrClosed)
	}
	if n.listener != nil {
		return fmt.Errorf("cluster: %s already serving on %s", n.name, n.listener.Addr())
	}
	l, err := tr.Listen(addr)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", n.name, err)
	}
	n.listener = l
	n.wg.Add(1)
	go n.accept(l)
	return nil
}

func (n *node) accept(l net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			continue
		}
		n.conns[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go func() {
			defer n.wg.Done()
			n.handle(conn)
			conn.Close()
			n.mu.Lock()
			delete(n.conns, conn)
			n.mu.Unlock()
		}()
	}
}

// handle is the per-connection loop: it decodes frames until the
// connection ends, then waits for the frames it spawned.
func (n *node) handle(conn net.Conn) {
	var wmu sync.Mutex
	send := func(m wire.Message) error {
		wmu.Lock()
		defer wmu.Unlock()
		_, err := wire.Encode(conn, m)
		return err
	}
	var reqs sync.WaitGroup
	defer reqs.Wait()
	for {
		msg, err := wire.Decode(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				n.logger.Debug("decode error", "err", err)
			}
			return
		}
		if n.failed.Load() {
			// A crashed node goes silent; it neither computes nor replies.
			// The peer's timeout handles the rest.
			continue
		}
		if hb, ok := msg.(*wire.Heartbeat); ok {
			// Echo liveness probes so failure detectors can tell a live
			// node from a crashed one.
			if send(hb) != nil {
				return
			}
			continue
		}
		reqs.Add(1)
		n.active.Add(1)
		go func() {
			defer reqs.Done()
			defer n.active.Add(-1)
			n.handler(send, msg)
		}()
	}
}

// Addr returns the listener's address, or "" before Serve.
func (n *node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

// SetFailed toggles simulated failure: a failed node stops answering,
// heartbeats included, which its peers observe as timeouts (§IV-G).
func (n *node) SetFailed(failed bool) { n.failed.Store(failed) }

// Failed reports the simulated-failure state.
func (n *node) Failed() bool { return n.failed.Load() }

// Drain gracefully shuts the node down: it stops accepting connections
// immediately, then waits for in-flight requests — including an edge's
// cloud escalations — to settle before closing. Peers hold their
// connections open indefinitely, so Drain waits on the in-flight
// counter, not on connection EOFs. When the context expires first the
// node is closed anyway and the context error is returned.
func (n *node) Drain(ctx context.Context) error {
	n.mu.Lock()
	if n.listener != nil {
		n.listener.Close()
	}
	n.mu.Unlock()
	err := n.awaitIdle(ctx)
	n.Close()
	return err
}

// Close stops the node, terminating its connections, and waits for
// their handlers to return. It is idempotent.
func (n *node) Close() error {
	n.mu.Lock()
	first := !n.closed
	n.closed = true
	if first {
		if n.listener != nil {
			n.listener.Close()
		}
		for conn := range n.conns {
			conn.Close()
		}
	}
	n.mu.Unlock()
	if first && n.onClose != nil {
		n.onClose()
	}
	n.wg.Wait()
	return nil
}

// awaitIdle waits until no frame is in flight or the context expires,
// returning the context error in the latter case. The counter is polled
// rather than signalled because drains are rare, human-scale events; a
// few-millisecond poll keeps the hot serving path free of drain
// bookkeeping.
func (n *node) awaitIdle(ctx context.Context) error {
	if n.active.Load() == 0 {
		return nil
	}
	ticker := time.NewTicker(drainPollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if n.active.Load() == 0 {
				return nil
			}
		case <-ctx.Done():
			return ctxErr(ctx.Err())
		}
	}
}
