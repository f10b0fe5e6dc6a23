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
// the final exit, which always classifies. Its one request is an
// Escalation of the hard samples' feature maps: the device maps from the
// gateway in a two-tier hierarchy, which it aggregates before the upper
// NN layers, or one pre-aggregated edge map per sample from the edge in
// a three-tier hierarchy.
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

// serve answers one downstream Escalation. The model its version pin
// resolved to serves the whole session, even if the replica's active
// version flips meanwhile.
func (c *Cloud) serve(send func(wire.Message) error, msg wire.Message) {
	m, ok := msg.(*wire.Escalation)
	if !ok {
		_ = send(&wire.Error{Session: sessionOf(msg), Code: 400, Msg: fmt.Sprintf("expected Escalation, got %v", msg.MsgType())})
		return
	}
	model, _, err := c.reg.resolve(m.ModelVersion)
	if err != nil {
		_ = send(&wire.Error{Session: m.Session, Code: 426, Msg: err.Error()})
		return
	}
	feats, err := unpackEscalation(model, wire.ExitCloud, m, c.pool)
	if err != nil {
		_ = send(&wire.Error{Session: m.Session, Code: 400, Msg: err.Error()})
		return
	}
	c.classify(send, model, m, feats)
}

// classify runs the cloud section for one escalation: samples sharing a
// mask classify in one forward pass — masked device aggregation in a
// two-tier hierarchy, the edge map as is in a three-tier one — and the
// whole escalation answers with a single ResultBatch whose verdicts
// follow the frame's sample order. The model is frozen (read-only), so
// sessions run genuinely in parallel.
func (c *Cloud) classify(send func(wire.Message) error, model *core.Model, esc *wire.Escalation, feats []*tensor.Tensor) {
	n := len(esc.SampleIDs)
	verdicts := make([]wire.BatchVerdict, n)
	for _, grp := range groupByMask(esc.Masks, len(feats)) {
		sel := selectGroup(feats, grp.indices, n, c.pool)
		var logits *tensor.Tensor
		if model.Cfg.UseEdge {
			logits = model.CloudForwardFromEdgePooled(sel[0], c.pool)
		} else {
			logits = model.CloudForwardPooled(sel, grp.present, c.pool)
		}
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
