package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/ddnn/ddnn-go/internal/wire"
)

// link multiplexes one connection across concurrent inference sessions.
// Frame writes are serialized by a mutex; a single reader goroutine decodes
// frames and hands each to the waiter subscribed for its session tag.
// Frames for sessions with no waiter — replies that arrive after their
// session timed out — are dropped, which replaces the old lock-step
// protocol's "discard stale sample IDs" loop.
type link struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	waiters map[uint64]chan wire.Message
	err     error // terminal read error, set before done is closed

	done      chan struct{}
	closeOnce sync.Once
}

// newLink wraps conn and starts its reader.
func newLink(conn net.Conn) *link {
	l := &link{
		conn:    conn,
		waiters: make(map[uint64]chan wire.Message),
		done:    make(chan struct{}),
	}
	go l.readLoop()
	return l
}

func (l *link) readLoop() {
	for {
		msg, err := wire.Decode(l.conn)
		if err != nil {
			l.fail(err)
			return
		}
		s, ok := msg.(wire.Sessioned)
		if !ok {
			continue // connection-scoped frame (heartbeat echo etc.)
		}
		l.mu.Lock()
		ch := l.waiters[s.SessionID()]
		l.mu.Unlock()
		if ch != nil {
			select {
			case ch <- msg:
			default: // waiter already satisfied; drop
			}
		}
	}
}

// broken reports whether the link has hit its terminal read error and can
// no longer deliver replies; replica pools re-dial broken links lazily.
func (l *link) broken() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err != nil
}

// fail records the terminal error and wakes every pending waiter.
func (l *link) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
	l.closeOnce.Do(func() { close(l.done) })
}

// subscribe registers a waiter for the session's frames. The returned
// channel holds one frame; unsubscribe must be called when the session is
// done with this link.
func (l *link) subscribe(session uint64) (<-chan wire.Message, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, l.err
	}
	ch := make(chan wire.Message, 1)
	l.waiters[session] = ch
	return ch, nil
}

func (l *link) unsubscribe(session uint64) {
	l.mu.Lock()
	delete(l.waiters, session)
	l.mu.Unlock()
}

// send writes one frame atomically with respect to other sessions. A
// positive timeout bounds the write via a write deadline, so a stalled
// peer cannot wedge the link's writer; a zero or negative timeout leaves
// the write unbounded (context-only callers).
func (l *link) send(timeout time.Duration, m wire.Message) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if timeout > 0 {
		_ = l.conn.SetWriteDeadline(time.Now().Add(timeout))
		defer l.conn.SetWriteDeadline(time.Time{})
	}
	_, err := wire.Encode(l.conn, m)
	return err
}

// wait blocks until the session's next frame, the timeout, the context, or
// link failure. A positive timeout bounds this stage even when ctx has no
// deadline; ctx cancellation and earlier ctx deadlines still win. A zero
// or negative timeout means the stage is bounded by the context alone —
// it must never make the wait expire instantly (a zero-value config is
// "no per-stage timeout", not "always time out").
func (l *link) wait(ctx context.Context, ch <-chan wire.Message, timeout time.Duration) (wire.Message, error) {
	var timerC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case msg := <-ch:
		return msg, nil
	case <-timerC:
		return nil, fmt.Errorf("cluster: %w after %v", ErrDeadlineExceeded, timeout)
	case <-ctx.Done():
		return nil, ctxErr(ctx.Err())
	case <-l.done:
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		return nil, fmt.Errorf("cluster: link failed: %w", err)
	}
}

// request sends one frame and waits for the session's reply.
func (l *link) request(ctx context.Context, session uint64, req wire.Message, timeout time.Duration) (wire.Message, error) {
	ch, err := l.subscribe(session)
	if err != nil {
		return nil, fmt.Errorf("cluster: link failed: %w", err)
	}
	defer l.unsubscribe(session)
	if err := l.send(timeout, req); err != nil {
		return nil, err
	}
	return l.wait(ctx, ch, timeout)
}

func (l *link) close() error {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		if l.err == nil {
			l.err = net.ErrClosed
		}
		l.mu.Unlock()
		close(l.done)
	})
	return l.conn.Close()
}
