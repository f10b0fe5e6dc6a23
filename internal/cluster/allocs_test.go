package cluster

import (
	"context"
	"runtime"
	"testing"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/transport"
)

// TestBatchOfOneAllocs bounds the heap allocations of a one-sample batch
// session — the shape every Classify call takes — on both hierarchies,
// counted across every node of an in-process cluster on zero-latency
// links over three sequential passes of the test set, after a warm-up
// pass fills the tensor pools. The bounds are this loop's figures with
// pooled link reply channels and stage timers and wire v5's varint
// session framing (237.9 / 251.9), plus 3%: one-sample sessions are what
// an idle work-conserving collector sends, so their per-session cost may
// not creep back.
func TestBatchOfOneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const passes = 3
	cases := []struct {
		name    string
		fixture func(*testing.T) (*core.Model, *dataset.Dataset)
		bound   float64
	}{
		{"two-tier", fixture, 245},
		{"three-tier", edgeFixture, 260},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model, test := tc.fixture(t)
			sim, err := NewSim(model, test, DefaultGatewayConfig(), transport.NewMem(), quietLogger())
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			pass := func() {
				for id := 0; id < test.Len(); id++ {
					if _, err := sim.Gateway.ClassifyBatch(context.Background(), []uint64{uint64(id)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			pass()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for p := 0; p < passes; p++ {
				pass()
			}
			runtime.ReadMemStats(&after)
			got := float64(after.Mallocs-before.Mallocs) / float64(passes*test.Len())
			t.Logf("%.1f allocs per one-sample batch session (bound %.0f)", got, tc.bound)
			if got > tc.bound {
				t.Errorf("%.1f allocs per one-sample batch session, want ≤ %.0f", got, tc.bound)
			}
		})
	}
}
