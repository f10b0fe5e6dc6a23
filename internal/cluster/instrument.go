package cluster

import (
	"sync/atomic"
	"time"

	"github.com/ddnn/ddnn-go/internal/wire"
)

// Instrumentation receives serving observations from a gateway, so a
// front door (or any other operator surface) can export real metrics —
// per-exit classification counters and per-tier latency histograms —
// without the runtime depending on a metrics library. Callbacks may be
// nil; non-nil callbacks are invoked inline on the session goroutine and
// must be fast, non-blocking and safe for concurrent use.
type Instrumentation struct {
	// ExitObserved is called once per classified sample with the exit
	// point that answered it and the session's wall-clock latency. A
	// multi-sample session fires it once per sample, each with that
	// sample's latency within the session, exactly as a single-sample
	// batch would.
	ExitObserved func(exit wire.ExitPoint, latency time.Duration)
	// StageObserved is called once per tier round trip of a session:
	// the device capture fan-out plus local-exit decision (reported as
	// wire.ExitLocal) and, for sessions that escalate, the feature
	// fetch + escalation round trip attributed to the upstream tier
	// (wire.ExitEdge or wire.ExitCloud — whichever tier the gateway
	// talks to; a three-tier escalation's cloud hop is inside the edge
	// round trip). A session reports one observation per round trip,
	// not per sample, whatever its batch size.
	StageObserved func(tier wire.ExitPoint, d time.Duration)
}

// SetInstrumentation installs (or, with the zero value, removes) the
// gateway's instrumentation callbacks. It is safe to call while sessions
// are in flight; in-flight sessions may report through either the old or
// the new callbacks.
func (g *Gateway) SetInstrumentation(in Instrumentation) {
	g.instr.Store(&in)
}

// instrumentation is an atomically-swappable Instrumentation holder.
type instrumentation struct {
	ptr atomic.Pointer[Instrumentation]
}

// Store swaps the installed callbacks.
func (i *instrumentation) Store(in *Instrumentation) { i.ptr.Store(in) }

// observeExit reports one classified sample.
func (i *instrumentation) observeExit(exit wire.ExitPoint, latency time.Duration) {
	if in := i.ptr.Load(); in != nil && in.ExitObserved != nil {
		in.ExitObserved(exit, latency)
	}
}

// observeStage reports one tier round trip.
func (i *instrumentation) observeStage(tier wire.ExitPoint, d time.Duration) {
	if in := i.ptr.Load(); in != nil && in.StageObserved != nil {
		in.StageObserved(tier, d)
	}
}
