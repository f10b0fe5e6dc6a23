package cluster

import (
	"fmt"
	"log/slog"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Cloud is the cloud node: it owns the cloud section of the DDNN and runs
// the final exit, which always classifies. In a two-tier hierarchy it
// receives the gateway's Escalation — the hard samples' device feature
// maps — aggregates them and runs the upper NN layers; in a three-tier
// hierarchy it receives the pre-aggregated edge feature maps the edge
// node escalates in an EdgeFeatureBatch.
//
// Every request is one self-contained frame, answered with one
// ResultBatch under the frame's session ID, so one downstream connection
// carries any number of interleaved sessions and the node keeps no
// per-session state between frames; each session is classified in its
// own goroutine against the shared read-only model.
type Cloud struct {
	node

	model *core.Model
}

// NewCloud constructs the cloud node around a trained model.
func NewCloud(model *core.Model, logger *slog.Logger) *Cloud {
	if logger == nil {
		logger = slog.Default()
	}
	c := &Cloud{model: model}
	c.init("cloud", logger.With("node", "cloud"), newModelRegistry(model, 1), c.serve)
	return c
}

// serve answers one downstream escalation. The model its version pin
// resolved to serves the whole session, even if the replica's active
// version flips meanwhile.
func (c *Cloud) serve(send func(wire.Message) error, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.Escalation:
		if c.model.Cfg.UseEdge {
			_ = send(&wire.Error{Session: m.Session, Code: 400, Msg: "edge-tier model: the cloud accepts EdgeFeatureBatch escalations only"})
			return
		}
		model, _, err := c.reg.resolve(m.ModelVersion)
		if err != nil {
			_ = send(&wire.Error{Session: m.Session, Code: 426, Msg: err.Error()})
			return
		}
		feats, err := unpackEscalation(model, m, c.pool)
		if err != nil {
			_ = send(&wire.Error{Session: m.Session, Code: 400, Msg: err.Error()})
			return
		}
		c.classify(send, model, m, feats)
	case *wire.EdgeFeatureBatch:
		if !c.model.Cfg.UseEdge {
			_ = send(&wire.Error{Session: m.Session, Code: 400, Msg: "model has no edge tier; send an Escalation"})
			return
		}
		model, _, err := c.reg.resolve(m.ModelVersion)
		if err != nil {
			_ = send(&wire.Error{Session: m.Session, Code: 426, Msg: err.Error()})
			return
		}
		feat, err := c.unpackEdgeFeatureBatch(model, m)
		if err != nil {
			_ = send(&wire.Error{Session: m.Session, Code: 400, Msg: err.Error()})
			return
		}
		c.classifyFromEdge(send, model, m, feat)
	default:
		_ = send(&wire.Error{Session: sessionOf(msg), Code: 400, Msg: fmt.Sprintf("expected Escalation or EdgeFeatureBatch, got %v", msg.MsgType())})
	}
}

// classify runs the cloud section for one two-tier escalation: samples
// sharing a device mask classify in one masked forward pass, and the
// whole escalation answers with a single ResultBatch whose verdicts
// follow the frame's sample order. The model is frozen (read-only), so
// sessions run genuinely in parallel.
func (c *Cloud) classify(send func(wire.Message) error, model *core.Model, esc *wire.Escalation, feats []*tensor.Tensor) {
	n := len(esc.SampleIDs)
	verdicts := make([]wire.BatchVerdict, n)
	for _, grp := range groupByMask(esc.Masks, model.Cfg.Devices) {
		sel := selectGroup(feats, grp.indices, n, c.pool)
		logits := model.CloudForwardPooled(sel, grp.present, c.pool)
		releaseGroup(feats, sel, c.pool)
		probs := nn.Softmax(logits)
		c.pool.Put(logits)
		for k, idx := range grp.indices {
			verdicts[idx] = verdictRow(probs, k, esc.SampleIDs[idx], wire.ExitCloud)
		}
	}
	releaseAll(feats, c.pool)
	if err := send(&wire.ResultBatch{Session: esc.Session, Verdicts: verdicts}); err != nil {
		c.logger.Debug("classify reply failed", "session", esc.Session, "err", err)
	}
}

// unpackEdgeFeatureBatch validates an escalated batch of edge feature
// maps against the model's edge section output shape and assembles the
// [N, F, H, W] batch tensor.
func (c *Cloud) unpackEdgeFeatureBatch(model *core.Model, m *wire.EdgeFeatureBatch) (*tensor.Tensor, error) {
	cfg := model.Cfg
	eh, ew := cfg.FeatureH()/2, cfg.FeatureW()/2
	if int(m.F) != cfg.EdgeFilters || int(m.H) != eh || int(m.W) != ew {
		return nil, fmt.Errorf("edge feature shape %d×%d×%d, model expects %d×%d×%d", m.F, m.H, m.W, cfg.EdgeFilters, eh, ew)
	}
	if len(m.SampleIDs) == 0 {
		return nil, fmt.Errorf("empty edge feature batch")
	}
	feat := c.pool.GetDirty(len(m.SampleIDs), int(m.F), int(m.H), int(m.W))
	for i := range m.SampleIDs {
		if err := model.UnpackFeatureInto(feat, i, m.Sample(i)); err != nil {
			c.pool.Put(feat)
			return nil, err
		}
	}
	return feat, nil
}

// classifyFromEdge runs the cloud section once over a batch of
// pre-aggregated edge feature maps — the samples that missed the edge
// exit — and answers with one ResultBatch in SampleIDs order.
func (c *Cloud) classifyFromEdge(send func(wire.Message) error, model *core.Model, m *wire.EdgeFeatureBatch, feat *tensor.Tensor) {
	logits := model.CloudForwardFromEdgePooled(feat, c.pool)
	c.pool.Put(feat)
	probs := nn.Softmax(logits)
	c.pool.Put(logits)
	verdicts := make([]wire.BatchVerdict, len(m.SampleIDs))
	for i, id := range m.SampleIDs {
		verdicts[i] = verdictRow(probs, i, id, wire.ExitCloud)
	}
	if err := send(&wire.ResultBatch{Session: m.Session, Verdicts: verdicts}); err != nil {
		c.logger.Debug("edge batch reply failed", "session", m.Session, "err", err)
	}
}
