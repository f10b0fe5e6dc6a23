package main

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddnn/ddnn-go/internal/transport"
)

// hop names one link class of the hierarchy.
type hop int

const (
	hopDevice    hop = iota // gateway ↔ device nodes
	hopUpstream             // gateway ↔ its upstream tier (edge or cloud)
	hopEdgeCloud            // edge ↔ cloud (three-tier models only)
	numHops
)

var hopNames = [numHops]string{"device", "upstream", "edge_cloud"}

// hopCounters accumulates one hop's traffic. Bytes are counted once, on
// the dialing end, in both directions; writes are counted on both ends.
type hopCounters struct {
	bytes  atomic.Int64
	writes atomic.Int64

	mu      sync.Mutex
	writeUs []float64 // per-write durations, only while timing
}

// countingTransport wraps transport.Mem so every connection the
// in-process cluster opens is counted by hop. It sits underneath the
// link simulator, so it sees the framed bytes that actually cross each
// link, at the time they arrive.
type countingTransport struct {
	inner *transport.Mem
	edge  bool // the model has an edge tier: cloud-N addresses are the edge→cloud hop
	hops  [numHops]hopCounters
	// timing turns on per-write timing (traced windows only).
	timing atomic.Bool
}

func newCountingTransport(edge bool) *countingTransport {
	return &countingTransport{inner: transport.NewMem(), edge: edge}
}

// hopOf classifies a listener address of the in-process cluster
// ("device-N", "edge-N", "cloud-N").
func (t *countingTransport) hopOf(addr string) hop {
	switch {
	case strings.HasPrefix(addr, "device"):
		return hopDevice
	case strings.HasPrefix(addr, "cloud") && t.edge:
		return hopEdgeCloud
	default:
		return hopUpstream
	}
}

// Listen implements transport.Transport.
func (t *countingTransport) Listen(addr string) (net.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, t: t, h: &t.hops[t.hopOf(addr)]}, nil
}

// Dial implements transport.Transport.
func (t *countingTransport) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := t.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: t, h: &t.hops[t.hopOf(addr)], dialer: true}, nil
}

// snapshot reads every hop's byte and write counters.
func (t *countingTransport) snapshot() (bytes, writes [numHops]int64) {
	for i := range t.hops {
		bytes[i] = t.hops[i].bytes.Load()
		writes[i] = t.hops[i].writes.Load()
	}
	return bytes, writes
}

// takeWriteTimes returns and clears the per-write durations of a hop.
func (t *countingTransport) takeWriteTimes(h hop) []float64 {
	c := &t.hops[h]
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.writeUs
	c.writeUs = nil
	return out
}

type countingListener struct {
	net.Listener
	t *countingTransport
	h *hopCounters
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, t: l.t, h: l.h}, nil
}

type countingConn struct {
	net.Conn
	t      *countingTransport
	h      *hopCounters
	dialer bool
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.dialer {
		c.h.bytes.Add(int64(n))
	}
	return n, err
}

// Write counts the write and, while timing, how long it blocked: on
// net.Pipe a write returns only once the peer has read it all.
func (c *countingConn) Write(b []byte) (int, error) {
	c.h.writes.Add(1)
	if !c.t.timing.Load() {
		n, err := c.Conn.Write(b)
		if c.dialer {
			c.h.bytes.Add(int64(n))
		}
		return n, err
	}
	start := time.Now()
	n, err := c.Conn.Write(b)
	d := time.Since(start)
	if c.dialer {
		c.h.bytes.Add(int64(n))
	}
	c.h.mu.Lock()
	c.h.writeUs = append(c.h.writeUs, us(d))
	c.h.mu.Unlock()
	return n, err
}
