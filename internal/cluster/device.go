// Package cluster is the distributed runtime that deploys a trained DDNN
// over real (or simulated) network links: device nodes run their DNN
// section next to the sensor, a gateway performs local aggregation and the
// entropy-thresholded exit decision, an optional edge node runs the middle
// tier of a three-tier hierarchy (Fig. 2 configs d/e), and a cloud node
// runs the upper NN layers for samples that miss every earlier exit
// (§III-D inference procedure). Exit stages form a first-class Pipeline:
// the gateway evaluates the first stage locally and relays the remaining
// thresholds up the chain — local → edge → cloud — with each tier
// answering the samples it is confident about and escalating only the
// hard ones' feature maps. The runtime degrades gracefully when devices
// fail (§IV-G): the gateway masks out unresponsive devices and
// aggregation proceeds with the rest; when the cloud is unreachable the
// edge answers escalated samples with its own exit as a best effort.
//
// Since the Engine redesign the runtime is fully concurrent: every
// inference session carries a wire-level session ID, connections multiplex
// frames from many sessions, and nodes process requests in parallel —
// model forward passes are read-only on a frozen model (core.Model.Freeze)
// so sessions never serialize on the network weights.
package cluster

import (
	"fmt"
	"log/slog"
	"sync"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Feed supplies a device's sensor view for a sample ID as a [1, C, H, W]
// tensor. Returning an error means the device has no frame for the sample.
// Feeds must be safe for concurrent use; DatasetFeed is.
type Feed func(sampleID uint64) (*tensor.Tensor, error)

// maxRetainedFeatures bounds the per-device cache of feature maps kept
// between a capture and a possible feature request. Sessions that exit
// locally never fetch their features, so entries are evicted oldest-first
// once the cache is full.
const maxRetainedFeatures = 256

// Device is an end-device node: it owns one device section of the DDNN and
// serves the gateway's CaptureBatch and FeatureBatchRequest frames on the
// shared node runtime. Requests are served concurrently; the model
// section is shared read-only, and the node's tensor pool recycles the
// forward tensors (feature maps, exit vectors, conv scratch) across
// sessions, keeping steady-state capture handling free of per-sample
// heap allocation.
type Device struct {
	node

	model *core.Model
	index int
	feed  Feed

	mu        sync.Mutex // guards features/featOrder only
	features  map[uint64]retainedFeature
	featOrder []uint64 // insertion order for eviction
}

// NewDevice constructs a device node for device `index` of the model,
// reading frames from feed.
func NewDevice(model *core.Model, index int, feed Feed, logger *slog.Logger) *Device {
	if logger == nil {
		logger = slog.Default()
	}
	d := &Device{
		model:    model,
		index:    index,
		feed:     feed,
		features: make(map[uint64]retainedFeature),
	}
	d.init(fmt.Sprintf("device %d", index), logger.With("node", fmt.Sprintf("device-%d", index)), newModelRegistry(model, 1), d.serve)
	return d
}

// serve answers one gateway frame.
func (d *Device) serve(send func(wire.Message) error, msg wire.Message) {
	var err error
	switch m := msg.(type) {
	case *wire.CaptureBatch:
		err = d.onCaptureBatch(send, m)
	case *wire.FeatureBatchRequest:
		err = d.onFeatureBatchRequest(send, m)
	default:
		err = send(&wire.Error{Session: sessionOf(msg), Code: 400, Msg: fmt.Sprintf("unexpected %v", msg.MsgType())})
	}
	if err != nil {
		d.logger.Debug("request failed", "type", msg.MsgType(), "session", sessionOf(msg), "err", err)
	}
}

// retainedFeature caches the binarized feature maps of one capture under
// its session ID: a [rows, F, H, W] tensor whose row r belongs to sample
// ids[r]. Rows follow the capture's batch order, skipping samples the
// feed had no frame for.
type retainedFeature struct {
	feat *tensor.Tensor
	ids  []uint64
}

// row returns the row of sample id at or after from, wrapping around, or
// -1. Feature requests list their samples as an in-order subsequence of
// the capture, so a cursor that resumes after the last hit keeps a whole
// request linear in the batch length.
func (rf retainedFeature) row(id uint64, from int) int {
	for k := range rf.ids {
		r := (from + k) % len(rf.ids)
		if rf.ids[r] == id {
			return r
		}
	}
	return -1
}

func (d *Device) retainFeature(session uint64, rf retainedFeature) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, exists := d.features[session]; exists {
		d.pool.Put(prev.feat)
	} else {
		d.featOrder = append(d.featOrder, session)
	}
	d.features[session] = rf
	for len(d.featOrder) > maxRetainedFeatures {
		oldest := d.featOrder[0]
		d.featOrder = d.featOrder[1:]
		if rf, ok := d.features[oldest]; ok {
			d.pool.Put(rf.feat)
		}
		delete(d.features, oldest)
	}
}

func (d *Device) takeFeature(session uint64) (retainedFeature, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rf, ok := d.features[session]
	if !ok {
		return retainedFeature{}, false
	}
	delete(d.features, session)
	for i, s := range d.featOrder {
		if s == session {
			d.featOrder = append(d.featOrder[:i], d.featOrder[i+1:]...)
			break
		}
	}
	return rf, true
}

// onCaptureBatch stacks the session's sensor frames straight into one
// pooled tensor and runs the device section once, so conv/GEMM setup
// amortizes across the batch. Samples whose feed has no frame are marked
// absent in the reply's presence bitmask; the rest get one summary row
// each, and their feature rows are retained for a possible
// FeatureBatchRequest. A sample listed twice simply takes two rows.
func (d *Device) onCaptureBatch(send func(wire.Message) error, m *wire.CaptureBatch) error {
	model, _, err := d.reg.resolve(m.ModelVersion)
	if err != nil {
		return send(&wire.Error{Session: m.Session, Code: 426, Msg: err.Error()})
	}
	n := len(m.SampleIDs)
	cfg := model.Cfg
	reply := &wire.SummaryBatch{
		Session: m.Session, Classes: uint16(cfg.Classes),
		Count: uint16(n), Present: make([]byte, (n+7)/8),
	}
	stacked := d.pool.GetDirty(n, cfg.InputC, cfg.InputH, cfg.InputW)
	ids := make([]uint64, 0, n)
	for i, id := range m.SampleIDs {
		x, err := d.feed(id)
		if err != nil || x.Size() != stacked.SampleSize() {
			continue // absent frame (object not in view / feed error)
		}
		copy(stacked.Sample(len(ids)), x.Data())
		ids = append(ids, id)
		reply.Present[i/8] |= 1 << uint(i%8)
	}
	if len(ids) == 0 {
		d.pool.Put(stacked)
		return send(reply)
	}
	in := stacked
	if len(ids) < n {
		in = tensor.FromSlice(stacked.Data()[:len(ids)*stacked.SampleSize()], len(ids), cfg.InputC, cfg.InputH, cfg.InputW)
	}
	feat, exitVec := model.DeviceForwardPooled(d.index, in, d.pool)
	d.pool.Put(stacked)
	d.retainFeature(m.Session, retainedFeature{feat: feat, ids: ids})
	// Rows are the present samples in batch order: exactly the reply's
	// summary rows. Encode copies them before the tensor goes back.
	reply.Probs = exitVec.Data()
	err = send(reply)
	d.pool.Put(exitVec)
	return err
}

// onFeatureBatchRequest packs the retained feature rows of the requested
// samples — the subset of the capture that missed the local exit — into
// one FeatureBatch frame. Evicted (or never-captured) samples are
// recomputed from the feed; a sample the feed cannot produce fails the
// whole fetch with 404, and the gateway degrades by dropping this device
// from the session.
func (d *Device) onFeatureBatchRequest(send func(wire.Message) error, m *wire.FeatureBatchRequest) error {
	model, _, rerr := d.reg.resolve(m.ModelVersion)
	if rerr != nil {
		return send(&wire.Error{Session: m.Session, Code: 426, Msg: rerr.Error()})
	}
	// The retained maps were computed under the same session — and the
	// gateway stamps one concrete version per session — so they are
	// already the right version's features.
	rf, ok := d.takeFeature(m.Session)
	if ok {
		defer d.pool.Put(rf.feat)
	}
	cfg := model.Cfg
	f, h, w := cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW()
	sb := (f*h*w + 7) / 8
	bits := make([]byte, len(m.SampleIDs)*sb)
	next := 0
	for k, id := range m.SampleIDs {
		dst := bits[k*sb : (k+1)*sb]
		if r := rf.row(id, next); r >= 0 {
			model.PackFeatureSampleInto(dst, rf.feat, r)
			next = r + 1
			continue
		}
		x, err := d.feed(id)
		if err != nil {
			return send(&wire.Error{Session: m.Session, Code: 404, Msg: err.Error()})
		}
		feat, exitVec := model.DeviceForwardPooled(d.index, x, d.pool)
		model.PackFeatureSampleInto(dst, feat, 0)
		d.pool.Put(feat)
		d.pool.Put(exitVec)
	}
	return send(&wire.FeatureBatch{
		Session: m.Session,
		F:       uint16(f), H: uint16(h), W: uint16(w),
		Count: uint16(len(m.SampleIDs)),
		Bits:  bits,
	})
}
