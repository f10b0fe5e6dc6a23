package bnn

import (
	"fmt"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// PackSigns bit-packs the signs of a tensor: bit i is 1 when element i is
// non-negative (+1 after binarization) and 0 otherwise (−1). Eight elements
// share a byte, which is the representation the paper's Eq. (1) assumes
// when charging f·o/8 bytes for a binarized feature upload. The compare
// and pack run as one fused kernel on the active dispatch path.
func PackSigns(t *tensor.Tensor) []byte {
	td := t.Data()
	out := make([]byte, (len(td)+7)/8)
	packSignsInto(out, td)
	return out
}

// UnpackSigns expands a bit-packed sign vector back into a ±1 tensor of the
// given shape.
func UnpackSigns(data []byte, shape ...int) (*tensor.Tensor, error) {
	t := tensor.New(shape...)
	n := t.Size()
	if need := (n + 7) / 8; len(data) != need {
		return nil, fmt.Errorf("bnn: packed data is %d bytes, shape %v needs %d", len(data), shape, need)
	}
	td := t.Data()
	for i := range td {
		if data[i/8]&(1<<uint(i%8)) != 0 {
			td[i] = 1
		} else {
			td[i] = -1
		}
	}
	return t, nil
}

// PackedSize returns the number of bytes PackSigns produces for n elements.
func PackedSize(n int) int { return (n + 7) / 8 }

// PackSignsSample bit-packs the signs of one leading-dimension sample
// block of a batched tensor, producing exactly the bytes PackSigns would
// produce for that sample alone — each sample of a micro-batch starts on
// its own byte boundary, so batched and per-sample uploads stay
// bit-identical.
func PackSignsSample(t *tensor.Tensor, i int) []byte {
	out := make([]byte, (t.Size()/t.Dim(0)+7)/8)
	PackSignsSampleInto(out, t, i)
	return out
}

// PackSignsSampleInto is PackSignsSample writing into dst, which must be
// zeroed and exactly PackedSize of one sample long, so a caller can pack
// many samples into one buffer.
func PackSignsSampleInto(dst []byte, t *tensor.Tensor, i int) {
	td := t.Sample(i)
	if len(dst) != (len(td)+7)/8 {
		panic(fmt.Sprintf("bnn: pack destination is %d bytes, sample needs %d", len(dst), (len(td)+7)/8))
	}
	packSignsInto(dst, td)
}

// UnpackSignsInto expands a bit-packed sign vector into dst as ±1 values.
// It is the in-place analogue of UnpackSigns, used to fill one sample row
// of a pre-allocated batch tensor.
func UnpackSignsInto(dst []float32, data []byte) error {
	if need := (len(dst) + 7) / 8; len(data) != need {
		return fmt.Errorf("bnn: packed data is %d bytes, %d elements need %d", len(data), len(dst), need)
	}
	for i := range dst {
		if data[i/8]&(1<<uint(i%8)) != 0 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
	}
	return nil
}
