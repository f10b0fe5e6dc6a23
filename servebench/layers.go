package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/ddnn/ddnn-go/internal/agg"
	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/nn"
	"github.com/ddnn/ddnn-go/internal/tensor"
)

// timeOp returns the median microseconds per call of op, over at least
// 15 calls and 20ms, after one warm-up call.
func timeOp(op func()) float64 {
	op()
	var ds []float64
	start := time.Now()
	for len(ds) < 15 || (time.Since(start) < 20*time.Millisecond && len(ds) < 5000) {
		t := time.Now()
		op()
		ds = append(ds, us(time.Since(t)))
	}
	return median(ds)
}

// coreTimings times each section call of the serving path in isolation
// on the workload's model and served inputs, pooled, at batch 1 and 32.
// Calls the model's hierarchy lacks (cloud_forward on a three-tier
// model, edge calls on a two-tier one) read 0.
func coreTimings(m *core.Model, test *dataset.Dataset) map[string]float64 {
	out := make(map[string]float64)
	for _, b := range []int{1, 32} {
		sfx := fmt.Sprintf("_b%d_us", b)
		idx := make([]int, b)
		for i := range idx {
			idx[i] = i % test.Len()
		}
		xs := test.AllDeviceBatches(m.Cfg.Devices, idx)
		feats := make([]*tensor.Tensor, m.Cfg.Devices)
		vecs := make([]*tensor.Tensor, m.Cfg.Devices)
		for d := range xs {
			feats[d], vecs[d] = m.DeviceForward(d, xs[d])
		}
		p := tensor.NewPool()
		out["core.device_forward"+sfx] = timeOp(func() {
			f, v := m.DeviceForwardPooled(0, xs[0], p)
			p.Put(f)
			p.Put(v)
		})
		out["core.local_aggregate"+sfx] = timeOp(func() { m.LocalAggregate(vecs, nil) })
		out["core.cloud_forward"+sfx] = 0
		out["core.edge_forward"+sfx] = 0
		out["core.cloud_from_edge"+sfx] = 0
		if m.Cfg.UseEdge {
			edgeFeat, _ := m.EdgeForward(feats, nil)
			out["core.edge_forward"+sfx] = timeOp(func() {
				f, l := m.EdgeForwardPooled(feats, nil, p)
				p.Put(f)
				p.Put(l)
			})
			out["core.cloud_from_edge"+sfx] = timeOp(func() { p.Put(m.CloudForwardFromEdgePooled(edgeFeat, p)) })
		} else {
			out["core.cloud_forward"+sfx] = timeOp(func() { p.Put(m.CloudForwardPooled(feats, nil, p)) })
		}
		bits := make([][]byte, b)
		for i := range bits {
			bits[i] = m.PackFeatureSample(feats[0], i)
		}
		out["core.pack_feature"+sfx] = timeOp(func() {
			for i := 0; i < b; i++ {
				m.PackFeatureSample(feats[0], i)
			}
		})
		dst := tensor.New(feats[0].Shape()...)
		out["core.unpack_feature"+sfx] = timeOp(func() {
			for i := 0; i < b; i++ {
				if err := m.UnpackFeatureInto(dst, i, bits[i]); err != nil {
					panic(err) // bits came from PackFeatureSample of the same shape
				}
			}
		})
	}
	return out
}

// blockShape is one ConvP block's input: channels, filters, height, width.
type blockShape struct{ inC, f, h, w int }

// kernelTimings times the kernels inside a ConvP block in isolation on
// the device block's shape and, with the _cloud suffix, on the cloud's
// first block. bnn.linear is the exit head over the section's output.
func kernelTimings(cfg core.Config) map[string]float64 {
	out := make(map[string]float64)
	rng := rand.New(rand.NewSource(1))
	dev := blockShape{cfg.InputC, cfg.DeviceFilters, cfg.InputH, cfg.InputW}
	cloud := blockShape{agg.FeatureOutChannels(cfg.CloudAgg, cfg.Devices, cfg.DeviceFilters), cfg.CloudFilters, cfg.FeatureH(), cfg.FeatureW()}
	if cfg.UseEdge {
		cloud = blockShape{cfg.EdgeFilters, cfg.CloudFilters, cfg.FeatureH() / 2, cfg.FeatureW() / 2}
	}
	for _, c := range []struct {
		sfx     string
		s       blockShape
		exitLen int
	}{
		{"_us", dev, dev.f * (dev.h / 2) * (dev.w / 2)},
		{"_cloud_us", cloud, cloud.f * (cloud.h / 4) * (cloud.w / 4)},
	} {
		s := c.s
		x := tensor.New(1, s.inC, s.h, s.w)
		x.FillUniform(rng, -1, 1)
		rows, cols := tensor.Im2colShape(x, 3, 1, 1)
		cols2 := make([]float32, rows*cols)
		out["tensor.im2col"+c.sfx] = timeOp(func() { tensor.Im2colInto(cols2, x, 0, 3, 1, 1) })
		w := tensor.New(s.f, rows)
		w.FillUniform(rng, -1, 1)
		bnn.Binarize(w, w)
		conv := make([]float32, s.f*cols)
		out["tensor.gemm_sign"+c.sfx] = timeOp(func() { tensor.GemmSign(conv, w.Data(), cols2, s.f, rows, cols) })
		y := tensor.FromSlice(conv, 1, s.f, s.h, s.w)
		p := tensor.NewPool()
		mp := nn.NewMaxPool2D(3, 2, 1)
		out["nn.maxpool"+c.sfx] = timeOp(func() { p.Put(mp.ForwardPooled(y, p)) })
		pooled := mp.ForwardPooled(y, nil)
		bn := nn.NewBatchNorm("servebench.bn", s.f)
		out["nn.batchnorm"+c.sfx] = timeOp(func() { p.Put(bn.ForwardPooled(pooled, p)) })
		if c.sfx == "_us" {
			out["bnn.binarize_pack_us"] = timeOp(func() { bnn.PackSigns(pooled) })
		}
		feat := tensor.New(1, c.exitLen)
		feat.FillUniform(rng, -1, 1)
		lin := bnn.NewBinaryLinear(rng, "servebench.exit", c.exitLen, cfg.Classes)
		out["bnn.linear"+c.sfx] = timeOp(func() { p.Put(lin.ForwardPooled(feat, p)) })
	}
	return out
}
