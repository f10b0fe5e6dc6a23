package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

// encodeFrame is a test helper returning the full wire frame of m.
func encodeFrame(tb testing.TB, m Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := Encode(&buf, m); err != nil {
		tb.Fatalf("encode seed %v: %v", m.MsgType(), err)
	}
	return buf.Bytes()
}

// seedMessages covers every message type of the protocol, so the fuzz
// corpus starts from one valid frame per decoder path: each batch frame
// appears as a batch of one — the shape every single-sample session
// takes — and as a multi-sample batch — and the uvarint Session and
// ModelVersion fields appear at their 1-, 2-, 3- and 10-byte widths.
// gen_corpus.go mirrors this list into the committed seed corpus.
func seedMessages() []Message {
	return []Message{
		&SummaryBatch{Session: 17, Classes: 3, Count: 1,
			Present: PackPresent([]bool{true}), Probs: []float32{0.1, 0.7, 0.2}},
		&FeatureBatchRequest{Session: 3, ModelVersion: 2, SampleIDs: []uint64{99}},
		&FeatureBatch{Session: 9, F: 4, H: 16, W: 16, Count: 1, Bits: make([]byte, 4*16*16/8)},
		&ResultBatch{Session: 1 << 40, Verdicts: []BatchVerdict{
			{SampleID: 5, Exit: ExitCloud, Class: 2, Probs: []float32{0.05, 0.05, 0.9}},
		}},
		&Heartbeat{NodeID: "edge-0", Seq: 12345},
		&Error{Session: 12, Code: 404, Msg: "no such sample"},
		&CaptureBatch{Session: 2, ModelVersion: 1, SampleIDs: []uint64{31337}},
		&Escalation{Session: 6, ModelVersion: 3, Devices: 6, F: 4, H: 16, W: 16,
			SampleIDs: []uint64{8}, Masks: []uint16{0b101101}, Bits: make([]byte, 4*128)},
		&Escalation{Session: 11, ModelVersion: 4, Devices: 6, F: 4, H: 16, W: 16,
			SampleIDs: []uint64{9}, Masks: []uint16{0b011011}, Thresholds: []float64{0.8, 0.5}, Bits: make([]byte, 4*128)},
		&Escalation{Session: 13, ModelVersion: 5, Devices: 1, F: 8, H: 8, W: 8,
			SampleIDs: []uint64{21}, Masks: []uint16{1}, Bits: make([]byte, 64)},
		&CaptureBatch{Session: 14, ModelVersion: 2, SampleIDs: []uint64{3, 1, 4}},
		&SummaryBatch{Session: 15, Classes: 3, Count: 3,
			Present: PackPresent([]bool{true, false, true}),
			Probs:   []float32{0.1, 0.7, 0.2, 0.9, 0.05, 0.05}},
		&FeatureBatchRequest{Session: 16, ModelVersion: 2, SampleIDs: []uint64{7, 9}},
		&FeatureBatch{Session: 17, F: 4, H: 16, W: 16, Count: 2, Bits: make([]byte, 256)},
		&Escalation{Session: 18, ModelVersion: 6, Devices: 6, F: 1, H: 4, W: 4,
			SampleIDs: []uint64{5, 6}, Masks: []uint16{0b111111, 0b101101}, Bits: make([]byte, 10*2)},
		&Escalation{Session: 19, ModelVersion: 7, Devices: 6, F: 1, H: 4, W: 4,
			SampleIDs: []uint64{5, 7}, Masks: []uint16{0b011011, 0b000001}, Thresholds: []float64{0.8, 0.5}, Bits: make([]byte, 5*2)},
		&Escalation{Session: 20, ModelVersion: 8, Devices: 1, F: 8, H: 8, W: 8,
			SampleIDs: []uint64{11, 12}, Masks: []uint16{1, 1}, Bits: make([]byte, 128)},
		&ResultBatch{Session: 21, Verdicts: []BatchVerdict{
			{SampleID: 5, Exit: ExitEdge, Class: 1, Probs: []float32{0.1, 0.8, 0.1}},
			{SampleID: 6, Exit: ExitCloud, Class: 0, Probs: []float32{0.9, 0.05, 0.05}},
		}},
		&DeviceHello{NodeID: "device-4", Slot: 4, Tenant: "tenant-a", Addr: "127.0.0.1:9104"},
		&DeviceWelcome{Slot: 4, Devices: 6, ConfigVersion: 17},
		&DeviceGoodbye{NodeID: "device-4", Slot: 4, Reason: "draining"},
		&CaptureBatch{Session: 127, ModelVersion: 128, SampleIDs: []uint64{1 << 63}},
		&SummaryBatch{Session: 1 << 63, Classes: 3, Count: 1,
			Present: PackPresent([]bool{true}), Probs: []float32{0.2, 0.3, 0.5}},
		&Error{Session: math.MaxUint64, Code: 503, Msg: "cloud unreachable"},
		&Escalation{Session: 1 << 14, ModelVersion: math.MaxUint64, Devices: 2, F: 1, H: 4, W: 4,
			SampleIDs: []uint64{1<<63 + 1}, Masks: []uint16{0b11}, Bits: make([]byte, 2*2)},
		&Escalation{Session: 1 << 21, ModelVersion: 1 << 63, Devices: 1, F: 8, H: 8, W: 8,
			SampleIDs: []uint64{1<<63 + 2}, Masks: []uint16{1}, Bits: make([]byte, 64)},
	}
}

// FuzzDecode feeds arbitrary byte streams to the frame decoder. The
// decoder must never panic or over-allocate: it either returns an error
// or a message that survives a bit-exact re-encode/decode round trip.
func FuzzDecode(f *testing.F) {
	for _, m := range seedMessages() {
		frame := encodeFrame(f, m)
		f.Add(frame)
		// Truncations and corruptions of valid frames are the
		// interesting neighborhood; seed a few directly.
		if len(frame) > 1 {
			f.Add(frame[:len(frame)/2])
		}
		mut := append([]byte(nil), frame...)
		mut[len(mut)-1] ^= 0xFF
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{0x17, 0xDD, Version, byte(TypeHeartbeat), 0xFF, 0xFF, 0xFF, 0x7F})
	// A truncated and an overflowing uvarint session tag.
	f.Add([]byte{0x17, 0xDD, Version, byte(TypeCaptureBatch), 2, 0, 0, 0, 0xFF, 0xFF})
	f.Add([]byte{0x17, 0xDD, Version, byte(TypeResultBatch), 13, 0, 0, 0,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // malformed input must only ever yield an error
		}
		reenc := encodeFrame(t, msg)
		again, err := Decode(bytes.NewReader(reenc))
		if err != nil {
			t.Fatalf("re-decode of %v failed: %v", msg.MsgType(), err)
		}
		if !bytes.Equal(reenc, encodeFrame(t, again)) {
			t.Fatalf("%v not stable under encode/decode", msg.MsgType())
		}
		// The decoder must consume exactly one frame: the re-encoded
		// frame can never be longer than the input that produced it.
		if len(reenc) > len(data) {
			t.Fatalf("%v re-encodes to %d bytes from %d input bytes", msg.MsgType(), len(reenc), len(data))
		}
	})
}

// FuzzRoundTrip builds one message of every type from fuzzer-chosen
// fields and asserts a bit-exact encode→decode→encode round trip, so
// every encoder/decoder pair is exercised across its whole field space
// (including NaN probabilities and empty slices).
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint64(2), uint16(3), uint16(4), "node", []byte{1, 2, 3, 4})
	f.Add(uint8(3), uint64(9), uint64(7), uint16(2), uint16(0xFFFF), "", []byte{})
	f.Add(uint8(9), uint64(1<<63), uint64(0), uint16(6), uint16(0b101101), "edge", []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, kind uint8, session, sample uint64, a, b uint16, s string, blob []byte) {
		m := buildMessage(kind, session, sample, a, b, s, blob)
		var buf bytes.Buffer
		if _, err := Encode(&buf, m); err != nil {
			t.Fatalf("encode %v: %v", m.MsgType(), err)
		}
		frame := append([]byte(nil), buf.Bytes()...)
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode %v: %v", m.MsgType(), err)
		}
		if got.MsgType() != m.MsgType() {
			t.Fatalf("round trip changed type %v → %v", m.MsgType(), got.MsgType())
		}
		// Compare re-encoded bytes rather than structs: bit-exact for
		// every field, and indifferent to NaN != NaN and nil vs empty.
		var buf2 bytes.Buffer
		if _, err := Encode(&buf2, got); err != nil {
			t.Fatalf("re-encode %v: %v", got.MsgType(), err)
		}
		if !bytes.Equal(frame, buf2.Bytes()) {
			t.Fatalf("%v round trip not bit-exact:\n in  %x\n out %x", m.MsgType(), frame, buf2.Bytes())
		}
	})
}

// buildMessage derives a structurally valid message of the kind-selected
// type from raw fuzz inputs.
func buildMessage(kind uint8, session, sample uint64, a, b uint16, s string, blob []byte) Message {
	if len(s) > 1024 {
		s = s[:1024]
	}
	probs := make([]float32, len(blob)/4%64)
	for i := range probs {
		probs[i] = math.Float32frombits(binary.LittleEndian.Uint32(blob[4*i:]))
	}
	// Feature shapes must be consistent with the bit payload; derive
	// small dimensions and size the payload to match.
	shape := func(x, y uint16) (uint16, uint16, uint16, []byte) {
		fDim := x%8 + 1
		h := y%16 + 1
		w := x/8%16 + 1
		bits := make([]byte, (int(fDim)*int(h)*int(w)+7)/8)
		copy(bits, blob)
		return fDim, h, w, bits
	}
	// Batched frames derive their variable-length lists from the blob.
	ids := make([]uint64, len(blob)/3%9)
	for i := range ids {
		ids[i] = sample + uint64(i)*uint64(a+1)
	}
	masks := make([]uint16, len(ids))
	for i := range masks {
		masks[i] = b + uint16(i)
	}
	// Model version pinning rides every session-opening frame.
	mv := session ^ sample
	thresholds := func() []float64 {
		ts := make([]float64, len(blob)/8%16)
		for i := range ts {
			ts[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8*i:]))
		}
		if len(ts) == 0 {
			return nil // the decoder yields nil for an empty list
		}
		return ts
	}
	switch kind % 12 {
	case 1:
		return &CaptureBatch{Session: session, ModelVersion: mv, SampleIDs: ids}
	case 2:
		fDim, h, w, one := shape(a, b)
		feats := 0
		for _, m := range masks {
			feats += bits.OnesCount16(m)
		}
		all := make([]byte, 0, feats*len(one))
		for i := 0; i < feats; i++ {
			all = append(all, one...)
		}
		return &Escalation{Session: session, ModelVersion: mv, Devices: a, F: fDim, H: h, W: w,
			SampleIDs: ids, Masks: masks, Thresholds: thresholds(), Bits: all}
	case 3:
		classes := int(b%4) + 1
		count := int(a % 8)
		present := make([]bool, count)
		popcount := 0
		for i := range present {
			present[i] = i < len(blob) && blob[i]&1 != 0
			if present[i] {
				popcount++
			}
		}
		sProbs := make([]float32, popcount*classes)
		for i := range sProbs {
			sProbs[i] = float32(i) / 7
		}
		return &SummaryBatch{Session: session, Classes: uint16(classes),
			Count: uint16(count), Present: PackPresent(present), Probs: sProbs}
	case 4:
		// The edge→cloud shape: one map per sample, every mask 1.
		fDim, h, w, one := shape(b, a)
		ones := make([]uint16, len(ids))
		bits := make([]byte, 0, len(ids)*len(one))
		for i := range ids {
			ones[i] = 1
			bits = append(bits, one...)
		}
		return &Escalation{Session: session, ModelVersion: mv, Devices: 1, F: fDim, H: h, W: w,
			SampleIDs: ids, Masks: ones, Bits: bits}
	case 5:
		return &Heartbeat{NodeID: s, Seq: session}
	case 6:
		return &Error{Session: session, Code: a, Msg: s}
	case 7:
		tenant := ""
		if len(blob) > 0 {
			tenant = s[:len(s)/2]
		}
		return &DeviceHello{NodeID: s, Slot: a, Tenant: tenant, Addr: s}
	case 8:
		return &DeviceWelcome{Slot: a, Devices: b, ConfigVersion: session}
	case 9:
		return &DeviceGoodbye{NodeID: s, Slot: b, Reason: s}
	case 10:
		return &FeatureBatchRequest{Session: session, ModelVersion: mv, SampleIDs: ids}
	case 11:
		fDim, h, w, one := shape(a, b)
		count := int(b % 4)
		bits := make([]byte, 0, count*len(one))
		for i := 0; i < count; i++ {
			bits = append(bits, one...)
		}
		return &FeatureBatch{Session: session, F: fDim, H: h, W: w, Count: uint16(count), Bits: bits}
	default:
		vs := make([]BatchVerdict, len(ids))
		for i := range vs {
			vs[i] = BatchVerdict{SampleID: ids[i], Exit: ExitPoint(uint8(a) + uint8(i)), Class: b, Probs: probs}
		}
		return &ResultBatch{Session: session, Verdicts: vs}
	}
}
