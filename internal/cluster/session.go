package cluster

import (
	"fmt"

	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// escalationInput returns the feature maps an Escalation to tier must
// carry per sample: one device-section map per device at an edge and at
// a two-tier cloud, one edge-section map at a three-tier cloud.
func escalationInput(cfg core.Config, tier wire.ExitPoint) (devices, f, h, w int) {
	if tier == wire.ExitCloud && cfg.UseEdge {
		return 1, cfg.EdgeFilters, cfg.FeatureH() / 2, cfg.FeatureW() / 2
	}
	return cfg.Devices, cfg.DeviceFilters, cfg.FeatureH(), cfg.FeatureW()
}

// unpackEscalation validates an Escalation against the input of the
// receiving tier's section (escalationInput) and unpacks its
// source-major feature payload into one [N, F, H, W] tensor per source,
// drawn zero-filled from pool (nil pool allocates): rows of samples a
// device does not cover stay zero, exactly like the placeholder maps of
// masked training (§IV-G). The caller returns the tensors to the pool
// once the session is classified.
func unpackEscalation(m *core.Model, tier wire.ExitPoint, esc *wire.Escalation, pool *tensor.Pool) ([]*tensor.Tensor, error) {
	devices, f, h, w := escalationInput(m.Cfg, tier)
	if int(esc.Devices) != devices {
		return nil, fmt.Errorf("%v tier takes %d feature maps per sample, escalation says %d", tier, devices, esc.Devices)
	}
	n := len(esc.SampleIDs)
	if n == 0 {
		return nil, fmt.Errorf("empty escalation")
	}
	if len(esc.Masks) != n {
		return nil, fmt.Errorf("escalation has %d samples but %d masks", n, len(esc.Masks))
	}
	if int(esc.F) != f || int(esc.H) != h || int(esc.W) != w {
		return nil, fmt.Errorf("feature shape %d×%d×%d, %v tier expects %d×%d×%d",
			esc.F, esc.H, esc.W, tier, f, h, w)
	}
	for i, mask := range esc.Masks {
		if mask == 0 {
			return nil, fmt.Errorf("sample %d has an empty device mask", esc.SampleIDs[i])
		}
		if mask>>uint(devices) != 0 {
			return nil, fmt.Errorf("sample %d mask %b names a device beyond %d", esc.SampleIDs[i], mask, devices)
		}
	}
	if want := esc.PresentCount() * esc.SampleBytes(); len(esc.Bits) != want {
		return nil, fmt.Errorf("escalation has %d feature bytes, masks need %d", len(esc.Bits), want)
	}
	feats := make([]*tensor.Tensor, devices)
	sb := esc.SampleBytes()
	off := 0
	for d := range feats {
		feats[d] = pool.Get(n, f, h, w)
		for i, mask := range esc.Masks {
			if mask&(1<<uint(d)) == 0 {
				continue
			}
			if err := m.UnpackFeatureInto(feats[d], i, esc.Bits[off:off+sb]); err != nil {
				releaseAll(feats[:d+1], pool)
				return nil, fmt.Errorf("unpack device %d sample %d: %w", d, esc.SampleIDs[i], err)
			}
			off += sb
		}
	}
	return feats, nil
}

// upstreamVerdicts checks a tier's reply to an Escalation — one
// ResultBatch verdict per escalated sample, in the frame's SampleIDs
// order — and returns the verdicts. An Error reply is returned as the
// *wire.Error itself, so a caller can map its code.
func upstreamVerdicts(reply wire.Message, ids []uint64) ([]wire.BatchVerdict, error) {
	switch m := reply.(type) {
	case *wire.ResultBatch:
		if len(m.Verdicts) != len(ids) {
			return nil, fmt.Errorf("answered %d verdicts for %d samples", len(m.Verdicts), len(ids))
		}
		for k, v := range m.Verdicts {
			if v.SampleID != ids[k] {
				return nil, fmt.Errorf("verdict %d is for sample %d, want %d", k, v.SampleID, ids[k])
			}
		}
		return m.Verdicts, nil
	case *wire.Error:
		return nil, m
	default:
		return nil, fmt.Errorf("expected ResultBatch, got %v", reply.MsgType())
	}
}

// releaseAll returns tensors to the pool.
func releaseAll(ts []*tensor.Tensor, pool *tensor.Pool) {
	for _, t := range ts {
		pool.Put(t)
	}
}

// selectGroup gathers a mask group's batch rows from each per-device
// tensor into pool-backed sub-batches. When the group spans the whole
// batch — the common all-devices-up case — the original tensors are
// returned as-is, skipping the copy; releaseGroup knows the difference.
func selectGroup(feats []*tensor.Tensor, indices []int, total int, pool *tensor.Pool) []*tensor.Tensor {
	if len(indices) == total {
		return feats
	}
	sel := make([]*tensor.Tensor, len(feats))
	for d, f := range feats {
		shape := append([]int{len(indices)}, f.Shape()[1:]...)
		t := pool.GetDirty(shape...)
		f.SelectSamplesInto(t, indices)
		sel[d] = t
	}
	return sel
}

// releaseGroup returns selectGroup's copies to the pool; a group that
// reused the originals is left alone (the session's release owns them).
func releaseGroup(orig, sel []*tensor.Tensor, pool *tensor.Pool) {
	if len(sel) > 0 && len(orig) > 0 && sel[0] == orig[0] {
		return
	}
	for _, t := range sel {
		pool.Put(t)
	}
}

// maskGroup is a batch subset whose samples share one device-presence
// mask, so a single masked forward pass covers the whole group and stays
// bit-identical to running each sample alone.
type maskGroup struct {
	mask uint16
	// indices are batch positions, in batch order.
	indices []int
	// present is the mask expanded to per-device booleans.
	present []bool
}

// groupByMask splits batch positions (at least one) by device-presence
// mask. Group order is first-appearance order; the common all-devices-up
// case — every sample sharing one mask — yields a single group spanning
// the batch without building a lookup map.
func groupByMask(masks []uint16, devices int) []maskGroup {
	groups := []maskGroup{{mask: masks[0], indices: make([]int, 0, len(masks)), present: presentOf(masks[0], devices)}}
	var at map[uint16]int // built once a second mask appears
	for i, m := range masks {
		gi := 0
		if m != groups[0].mask {
			if at == nil {
				at = map[uint16]int{groups[0].mask: 0}
			}
			var ok bool
			if gi, ok = at[m]; !ok {
				gi = len(groups)
				at[m] = gi
				groups = append(groups, maskGroup{mask: m, present: presentOf(m, devices)})
			}
		}
		groups[gi].indices = append(groups[gi].indices, i)
	}
	return groups
}

// presentOf expands a wire device mask to per-device booleans.
func presentOf(mask uint16, devices int) []bool {
	present := make([]bool, devices)
	for d := range present {
		present[d] = mask&(1<<uint(d)) != 0
	}
	return present
}

// verdictRow assembles one sample's BatchVerdict from row k of a softmax
// probability tensor — the shared tail of every tier's classify.
func verdictRow(probs *tensor.Tensor, k int, id uint64, exit wire.ExitPoint) wire.BatchVerdict {
	row := make([]float32, probs.Dim(1))
	copy(row, probs.Row(k))
	return wire.BatchVerdict{
		SampleID: id,
		Exit:     exit,
		Class:    uint16(probs.ArgMaxRow(k)),
		Probs:    row,
	}
}

// sessionOf extracts a message's session tag, or 0 for connection-scoped
// frames, so error replies to unexpected messages still reach the
// session's waiter instead of being dropped by the demultiplexer.
func sessionOf(m wire.Message) uint64 {
	if s, ok := m.(wire.Sessioned); ok {
		return s.SessionID()
	}
	return 0
}
