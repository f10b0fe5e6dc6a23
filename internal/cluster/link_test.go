package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/wire"
)

// linkPeer is the far end of a link under test: it reads the link's
// frames and writes replies by hand. net.Pipe is synchronous, so once a
// write of a frame returns the link's reader has consumed every earlier
// frame; deliver uses that to order a reply before the test's next step.
type linkPeer struct {
	t    *testing.T
	conn net.Conn
	reqs chan wire.Message
}

func newLinkPair(t *testing.T) (*link, *linkPeer) {
	t.Helper()
	near, far := net.Pipe()
	lk := newLink(near)
	p := &linkPeer{t: t, conn: far, reqs: make(chan wire.Message, 16)}
	go func() {
		for {
			msg, err := wire.Decode(far)
			if err != nil {
				close(p.reqs)
				return
			}
			p.reqs <- msg
		}
	}()
	t.Cleanup(func() {
		lk.close()
		far.Close()
	})
	return lk, p
}

// deliver writes a reply for the session, then a connection-scoped
// heartbeat: when the heartbeat's write returns, the link has already
// dispatched (or dropped) the reply.
func (p *linkPeer) deliver(session uint64) {
	p.t.Helper()
	for _, m := range []wire.Message{
		&wire.ResultBatch{Session: session},
		&wire.Heartbeat{NodeID: "peer", Seq: session},
	} {
		if _, err := wire.Encode(p.conn, m); err != nil {
			p.t.Fatalf("peer write: %v", err)
		}
	}
}

// request reads the next frame the link sent.
func (p *linkPeer) request() wire.Message {
	p.t.Helper()
	select {
	case m := <-p.reqs:
		return m
	case <-time.After(5 * time.Second):
		p.t.Fatal("link sent no request")
		return nil
	}
}

// TestLinkLateReplyNeverReachesNextSession checks the pooled reply
// channels: a reply that lands after its session timed out — before or
// after the session unsubscribed — must never be received by a later
// session reusing the channel.
func TestLinkLateReplyNeverReachesNextSession(t *testing.T) {
	lk, peer := newLinkPair(t)
	ctx := context.Background()
	for round := uint64(0); round < 4; round++ {
		// Session A times out, and its reply lands in the channel before
		// A unsubscribes: unsubscribe must drain it before pooling.
		a := 10*round + 1
		ch, err := lk.subscribe(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := lk.send(time.Second, &wire.CaptureBatch{Session: a}); err != nil {
			t.Fatal(err)
		}
		peer.request()
		if _, err := lk.wait(ctx, ch, time.Millisecond); !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("session %d: wait err = %v, want ErrDeadlineExceeded", a, err)
		}
		peer.deliver(a)
		if len(ch) != 1 {
			t.Fatalf("session %d: late reply not buffered before unsubscribe", a)
		}
		lk.unsubscribe(a, ch)
		if len(ch) != 0 {
			t.Fatalf("session %d: unsubscribe pooled a channel still holding a late reply", a)
		}

		// Session A' times out through request, and its reply lands only
		// after the unsubscribe: the reader must drop it.
		a2 := 10*round + 2
		if _, err := lk.request(ctx, a2, &wire.CaptureBatch{Session: a2}, time.Millisecond); !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("session %d: request err = %v, want ErrDeadlineExceeded", a2, err)
		}
		peer.request()
		peer.deliver(a2)

		// Session B reuses the pool and must see only its own reply.
		b := 10*round + 3
		got := make(chan wire.Message, 1)
		go func() {
			msg, err := lk.request(ctx, b, &wire.CaptureBatch{Session: b}, 5*time.Second)
			if err != nil {
				t.Errorf("session %d: %v", b, err)
			}
			got <- msg
		}()
		if req := peer.request(); req.(wire.Sessioned).SessionID() != b {
			t.Fatalf("peer got session %d, want %d", req.(wire.Sessioned).SessionID(), b)
		}
		peer.deliver(b)
		msg := <-got
		if msg == nil {
			t.FailNow()
		}
		if sid := msg.(wire.Sessioned).SessionID(); sid != b {
			t.Fatalf("session %d received session %d's reply", b, sid)
		}
	}
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if n := len(lk.waiters); n != 0 {
		t.Errorf("%d waiters left subscribed", n)
	}
}

// TestLinkWaitTimerReuse checks the pooled stage timers: after a wait
// that timed out, and after a timer that fired unread, the next wait
// with a long timeout does not expire at once.
func TestLinkWaitTimerReuse(t *testing.T) {
	lk, _ := newLinkPair(t)
	ch, err := lk.subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer lk.unsubscribe(1, ch)
	for i := 0; i < 4; i++ {
		if _, err := lk.wait(context.Background(), ch, time.Millisecond); !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("short wait: err = %v, want ErrDeadlineExceeded", err)
		}
		// A timer that fired while nobody read it must not come back
		// from the pool.
		timer := getStageTimer(time.Millisecond)
		time.Sleep(5 * time.Millisecond)
		putStageTimer(timer, false)

		const hold = 30 * time.Millisecond
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(hold, cancel)
		start := time.Now()
		_, err := lk.wait(ctx, ch, time.Hour)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("long wait after a timed-out one: err = %v after %v, want ErrCanceled", err, time.Since(start))
		}
		if d := time.Since(start); d < hold {
			t.Fatalf("long wait returned after %v, before its context was canceled", d)
		}
	}
}

// TestLinkStageTimerNeverPooledWithTick races a stage timer's expiry against
// putStageTimer. A timer that fires just as it is put back can have its
// tick still on the way after Stop returns false; such a timer must not
// be reused, or the next stage would see that tick and time out at once.
func TestLinkStageTimerNeverPooledWithTick(t *testing.T) {
	iters := 5000
	if testing.Short() {
		iters = 1000
	}
	spin := func(d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
		}
	}
	for i := 0; i < iters; i++ {
		d := time.Duration(i%40) * time.Microsecond
		timer := getStageTimer(d)
		spin(d)
		putStageTimer(timer, false)

		next := getStageTimer(time.Hour)
		spin(20 * time.Microsecond) // let an in-flight tick land
		select {
		case <-next.C:
			t.Fatalf("iteration %d: a one-hour stage timer ticked at once", i)
		default:
		}
		putStageTimer(next, false)
	}
}
