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
		// The hand-off happens under l.mu, so once unsubscribe has
		// removed a waiter no late frame can land in its channel, and
		// the channel can go back to the pool.
		l.mu.Lock()
		if ch := l.waiters[s.SessionID()]; ch != nil {
			select {
			case ch <- msg:
			default: // waiter already satisfied; drop
			}
		}
		l.mu.Unlock()
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

// replyChans recycles the one-frame reply channels of link waiters.
var replyChans = sync.Pool{New: func() any { return make(chan wire.Message, 1) }}

// subscribe registers a waiter for the session's frames. The returned
// channel holds one frame; unsubscribe must be called with it when the
// session is done with this link.
func (l *link) subscribe(session uint64) (chan wire.Message, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, l.err
	}
	ch := replyChans.Get().(chan wire.Message)
	l.waiters[session] = ch
	return ch, nil
}

// unsubscribe removes the session's waiter and returns its channel to
// the pool, first draining a reply that arrived after the waiter
// stopped reading (a timed-out stage), so the next session to reuse the
// channel receives only its own frame.
func (l *link) unsubscribe(session uint64, ch chan wire.Message) {
	l.mu.Lock()
	if l.waiters[session] == ch {
		delete(l.waiters, session)
	}
	l.mu.Unlock()
	select {
	case <-ch:
	default:
	}
	replyChans.Put(ch)
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

// stageTimers recycles wait's stage timers. A timer may go back only
// when no tick can still reach its channel: Stop stopped it before it
// fired, or wait received its tick. A timer that fired unread is
// dropped instead. Under the asynchronous timer channels that go.mod's
// go 1.22 line selects, the runtime marks a firing timer stopped before
// it sends the tick, so Stop can return false while the tick is still
// on its way; no drain can tell that tick from one that will never come
// (synchronous channels, go 1.23 and later), so none is attempted.
var stageTimers sync.Pool

func getStageTimer(d time.Duration) *time.Timer {
	if t, ok := stageTimers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putStageTimer stops t and pools it if no tick can be pending; fired
// reports whether the caller received t's tick.
func putStageTimer(t *time.Timer, fired bool) {
	if t.Stop() || fired {
		stageTimers.Put(t)
	}
}

// wait blocks until the session's next frame, the timeout, the context, or
// link failure. A positive timeout bounds this stage even when ctx has no
// deadline; ctx cancellation and earlier ctx deadlines still win. A zero
// or negative timeout means the stage is bounded by the context alone —
// it must never make the wait expire instantly (a zero-value config is
// "no per-stage timeout", not "always time out").
func (l *link) wait(ctx context.Context, ch <-chan wire.Message, timeout time.Duration) (wire.Message, error) {
	var timerC <-chan time.Time
	fired := false // wait received the stage timer's tick
	if timeout > 0 {
		timer := getStageTimer(timeout)
		defer func() { putStageTimer(timer, fired) }()
		timerC = timer.C
	}
	select {
	case msg := <-ch:
		return msg, nil
	case <-timerC:
		fired = true
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
	defer l.unsubscribe(session, ch)
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
