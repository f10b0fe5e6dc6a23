package cluster

import (
	"context"
	"slices"
	"testing"

	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// stagedExpectation replays core's staged Evaluate decision for one
// sample: the first exit whose entropy passes its threshold classifies,
// and the final exit always does.
func stagedExpectation(res *core.EvalResult, pol branchy.Policy, i int) (wire.ExitPoint, int) {
	probs := [][]float32{res.LocalProbs[i]}
	exits := []wire.ExitPoint{wire.ExitLocal}
	if res.EdgeProbs != nil {
		probs = append(probs, res.EdgeProbs[i])
		exits = append(exits, wire.ExitEdge)
	}
	probs = append(probs, res.CloudProbs[i])
	exits = append(exits, wire.ExitCloud)
	for e := range probs {
		if pol.ShouldExit(e, probs[e]) {
			return exits[e], argmaxRow(probs[e])
		}
	}
	return exits[len(exits)-1], argmaxRow(probs[len(probs)-1])
}

func argmaxRow(row []float32) int {
	best := 0
	for i := 1; i < len(row); i++ {
		if row[i] > row[best] {
			best = i
		}
	}
	return best
}

// checkStagedParity asserts that Engine.ClassifyBatch over the full test
// set produces exactly the exit point and prediction of core's staged
// Evaluate for every sample, at the given pipeline thresholds. batch 0
// runs one-sample sessions through the engine, batch 1 drives the
// gateway's ClassifyBatch directly with one-sample batches, and larger
// values run batch-sized multi-sample sessions through the collector's
// chunking.
func checkStagedParity(t *testing.T, model *core.Model, test *dataset.Dataset, localT, edgeT float64, batch int) {
	t.Helper()
	res := model.Evaluate(test, nil, 32)
	var pol branchy.Policy
	if model.Cfg.UseEdge {
		pol = branchy.NewPolicy(localT, edgeT, 1)
	} else {
		pol = branchy.NewPolicy(localT, 1)
	}

	gcfg := DefaultGatewayConfig()
	gcfg.Threshold = localT
	gcfg.EdgeThreshold = edgeT
	eng, err := NewEngine(model, test, EngineConfig{
		Gateway:        gcfg,
		MaxConcurrency: 8,
		Batch:          BatchConfig{MaxBatch: batch},
		Logger:         quietLogger(),
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ids := make([]uint64, test.Len())
	for i := range ids {
		ids[i] = uint64(i)
	}
	var results []*Result
	if batch == 1 {
		// Exercise the batched wire path with single-sample batches,
		// which the collector never produces on its own.
		gw := eng.Gateway()
		for _, id := range ids {
			rs, err := gw.ClassifyBatch(context.Background(), []uint64{id})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, rs...)
		}
	} else {
		results, err = eng.ClassifyBatch(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, got := range results {
		wantExit, wantClass := stagedExpectation(res, pol, i)
		if got.Exit != wantExit {
			t.Errorf("sample %d (batch %d): engine exited at %v, staged Evaluate says %v", i, batch, got.Exit, wantExit)
		}
		if got.Class != wantClass {
			t.Errorf("sample %d (batch %d): engine class %d, staged Evaluate says %d", i, batch, got.Class, wantClass)
		}
	}
}

// TestEngineStagedParityTwoTier checks end-to-end parity between the
// distributed serving runtime and in-process staged inference for the
// two-tier hierarchy, over the full test set at several thresholds.
func TestEngineStagedParityTwoTier(t *testing.T) {
	model, test := fixture(t)
	for _, localT := range []float64{0.3, 0.5, 0.8, 0.95} {
		checkStagedParity(t, model, test, localT, 0.8, 0)
	}
}

// TestEngineStagedParityTwoTierBatched is the same contract through the
// micro-batched path: batch sizes 1, 8 and 32 must all be bit-identical
// to core's staged Evaluate — batching may only change framing and
// dispatch, never decisions.
func TestEngineStagedParityTwoTierBatched(t *testing.T) {
	model, test := fixture(t)
	for _, batch := range []int{1, 8, 32} {
		for _, localT := range []float64{0.5, 0.8} {
			checkStagedParity(t, model, test, localT, 0.8, batch)
		}
	}
}

// TestEngineStagedParityEdgeTier is the same contract over the
// three-tier device→edge→cloud hierarchy: every sample must take the
// same exit — local, edge or cloud — and produce the same class as
// core's staged Evaluate, across several threshold pairs.
func TestEngineStagedParityEdgeTier(t *testing.T) {
	model, test := edgeFixture(t)
	for _, ts := range [][2]float64{
		{0.3, 0.8},
		{0.5, 0.5},
		{0.8, 0.3},
		{0.8, 0.8},
		{0.95, 0.95},
	} {
		checkStagedParity(t, model, test, ts[0], ts[1], 0)
	}
}

// TestEngineStagedParityEdgeTierBatched drives the batched path through
// all three tiers: partial exits must drop confident samples from the
// batch at the local and edge stages while the hard remainder rides to
// the cloud, with every verdict bit-identical to staged Evaluate.
func TestEngineStagedParityEdgeTierBatched(t *testing.T) {
	model, test := edgeFixture(t)
	for _, batch := range []int{1, 8, 32} {
		for _, ts := range [][2]float64{
			{0.5, 0.5},
			{0.8, 0.8},
		} {
			checkStagedParity(t, model, test, ts[0], ts[1], batch)
		}
	}
}

// TestClassifyBatchDuplicateIDs sends one batch that names the same
// sample several times, as the collector does when concurrent callers
// ask for the same sample. Every copy must get the verdict a one-sample
// session gives — bit-identical probabilities — and match the staged
// reference, on both hierarchies, including when the samples escalate.
func TestClassifyBatchDuplicateIDs(t *testing.T) {
	ids := []uint64{7, 7, 3, 7}
	for _, tc := range []struct {
		name    string
		fixture func(*testing.T) (*core.Model, *dataset.Dataset)
	}{
		{"two-tier", fixture},
		{"three-tier", edgeFixture},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model, test := tc.fixture(t)
			ref := model.Evaluate(test, nil, 32)
			escalated := 0
			// -1 escalates every sample past the local exit.
			for _, localT := range []float64{0.8, -1} {
				gcfg := DefaultGatewayConfig()
				gcfg.Threshold = localT
				pol := branchy.NewPolicy(localT, 1)
				if model.Cfg.UseEdge {
					pol = branchy.NewPolicy(localT, gcfg.EdgeThreshold, 1)
				}
				sim, err := NewSim(model, test, gcfg, transport.NewMem(), quietLogger())
				if err != nil {
					t.Fatal(err)
				}
				results, err := sim.Gateway.ClassifyBatch(context.Background(), ids)
				if err != nil {
					sim.Close()
					t.Fatal(err)
				}
				for i, res := range results {
					id := ids[i]
					single, err := sim.Gateway.Classify(context.Background(), id)
					if err != nil {
						sim.Close()
						t.Fatal(err)
					}
					wantExit, wantClass := stagedExpectation(ref, pol, int(id))
					if res.SampleID != id || res.Exit != wantExit || res.Class != wantClass {
						t.Errorf("T=%v position %d: sample %d exit %v class %d, staged reference says %v/%d",
							localT, i, res.SampleID, res.Exit, res.Class, wantExit, wantClass)
					}
					if res.Exit != single.Exit || !slices.Equal(res.Probs, single.Probs) || !slices.Equal(res.Present, single.Present) {
						t.Errorf("T=%v position %d: sample %d differs from its one-sample session", localT, i, id)
					}
					if res.Exit != wire.ExitLocal {
						escalated++
					}
				}
				sim.Close()
			}
			if escalated == 0 {
				t.Error("no sample escalated; the duplicate path above the local exit went untested")
			}
		})
	}
}
