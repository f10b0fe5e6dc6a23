package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// MaxDevices is the largest device count the protocol can describe: the
// per-sample device masks of an Escalation are uint16 bitmasks, so device
// indices above 15 would silently alias (1 << d overflows and corrupts
// the mask). Hierarchies with more devices must be rejected before any
// session opens; the cluster runtime does so at gateway construction
// time.
const MaxDevices = 16

// MaxBatch is the largest number of samples one session may carry;
// batch frame counts are encoded as uint16.
const MaxBatch = 1<<16 - 1

// appendSampleIDs encodes a uint16 count followed by the IDs.
func appendSampleIDs(dst []byte, ids []uint64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ids)))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, id)
	}
	return dst
}

// readSampleIDs decodes a uint16-counted ID list, returning the rest.
func readSampleIDs(src []byte) ([]uint64, []byte, error) {
	if len(src) < 2 {
		return nil, nil, ErrShortPayload
	}
	n := int(binary.LittleEndian.Uint16(src[0:2]))
	src = src[2:]
	if len(src) < 8*n {
		return nil, nil, ErrShortPayload
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	return ids, src[8*n:], nil
}

// readUvarint decodes a uvarint, returning the rest. Truncated and
// overflowing encodings are short payloads.
func readUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, ErrShortPayload
	}
	return v, src[n:], nil
}

// readSessionVersion decodes the uvarint Session and ModelVersion that
// open every session-opening request frame, returning the rest.
func readSessionVersion(src []byte) (session, version uint64, rest []byte, err error) {
	if session, src, err = readUvarint(src); err != nil {
		return 0, 0, nil, err
	}
	if version, src, err = readUvarint(src); err != nil {
		return 0, 0, nil, err
	}
	return session, version, src, nil
}

// PackPresent bit-packs a presence vector for the batch frames: bit i of
// the result marks sample i as present.
func PackPresent(present []bool) []byte {
	out := make([]byte, (len(present)+7)/8)
	for i, p := range present {
		if p {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// CaptureBatch asks a device to process its sensor frames for a session's
// samples in one forward pass and reply with a SummaryBatch. A
// single-sample session sends a batch of one.
type CaptureBatch struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
	// SampleIDs lists the batch's samples, in batch order.
	SampleIDs []uint64
}

// MsgType implements Message.
func (*CaptureBatch) MsgType() MsgType { return TypeCaptureBatch }

// SessionID implements Sessioned.
func (m *CaptureBatch) SessionID() uint64 { return m.Session }

func (m *CaptureBatch) appendPayload(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Session)
	dst = binary.AppendUvarint(dst, m.ModelVersion)
	return appendSampleIDs(dst, m.SampleIDs)
}

func (m *CaptureBatch) decodePayload(src []byte) error {
	session, version, src, err := readSessionVersion(src)
	if err != nil {
		return err
	}
	ids, rest, err := readSampleIDs(src)
	if err != nil {
		return err
	}
	m.Session, m.ModelVersion = session, version
	if len(rest) != 0 {
		return ErrShortPayload
	}
	m.SampleIDs = ids
	return nil
}

// SummaryBatch is a device's reply to a CaptureBatch: one class-summary
// row per present sample of the batch, in batch order. Present has bit i
// set when the device produced a summary for the batch's i-th sample
// (absent frames — feed errors — clear the bit), and Probs holds exactly
// popcount(Present)·Classes float32 values. Each present row charges the
// 4·|C| bytes of Eq. (1)'s class summary. The frame does not name its
// device: the gateway knows it by the link the reply arrived on.
type SummaryBatch struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// Classes is the model's class count (the width of each Probs row).
	Classes uint16
	// Count is the batch length (the number of samples in the
	// CaptureBatch this answers).
	Count uint16
	// Present is the PackPresent bitmask over batch positions. Decoding
	// aliases it into the frame's payload buffer.
	Present []byte
	// Probs holds the summary rows of present samples, batch order.
	Probs []float32
}

// MsgType implements Message.
func (*SummaryBatch) MsgType() MsgType { return TypeSummaryBatch }

// SessionID implements Sessioned.
func (m *SummaryBatch) SessionID() uint64 { return m.Session }

// Has reports whether batch position i carries a summary row.
func (m *SummaryBatch) Has(i int) bool {
	return i/8 < len(m.Present) && m.Present[i/8]&(1<<uint(i%8)) != 0
}

// PresentCount returns the number of samples with a summary row.
func (m *SummaryBatch) PresentCount() int {
	c := 0
	for _, b := range m.Present {
		c += bits.OnesCount8(b)
	}
	return c
}

func (m *SummaryBatch) appendPayload(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Session)
	dst = binary.LittleEndian.AppendUint16(dst, m.Classes)
	dst = binary.LittleEndian.AppendUint16(dst, m.Count)
	dst = append(dst, m.Present...)
	for _, p := range m.Probs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(p))
	}
	return dst
}

func (m *SummaryBatch) decodePayload(src []byte) error {
	session, src, err := readUvarint(src)
	if err != nil {
		return err
	}
	if len(src) < 4 {
		return ErrShortPayload
	}
	m.Session = session
	m.Classes = binary.LittleEndian.Uint16(src[0:2])
	m.Count = binary.LittleEndian.Uint16(src[2:4])
	src = src[4:]
	pb := (int(m.Count) + 7) / 8
	if len(src) < pb {
		return ErrShortPayload
	}
	m.Present = src[:pb:pb]
	src = src[pb:]
	n := m.PresentCount() * int(m.Classes)
	if len(src) != 4*n {
		return ErrShortPayload
	}
	m.Probs = make([]float32, n)
	for i := range m.Probs {
		m.Probs[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return nil
}

// FeatureBatchRequest asks a device for the binarized feature maps of the
// listed samples — the subset of an earlier CaptureBatch that missed the
// local exit. The device answers with a FeatureBatch in the same order.
type FeatureBatchRequest struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
	// SampleIDs lists the batch's samples, in batch order.
	SampleIDs []uint64
}

// MsgType implements Message.
func (*FeatureBatchRequest) MsgType() MsgType { return TypeFeatureBatchRequest }

// SessionID implements Sessioned.
func (m *FeatureBatchRequest) SessionID() uint64 { return m.Session }

func (m *FeatureBatchRequest) appendPayload(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Session)
	dst = binary.AppendUvarint(dst, m.ModelVersion)
	return appendSampleIDs(dst, m.SampleIDs)
}

func (m *FeatureBatchRequest) decodePayload(src []byte) error {
	session, version, src, err := readSessionVersion(src)
	if err != nil {
		return err
	}
	ids, rest, err := readSampleIDs(src)
	if err != nil {
		return err
	}
	m.Session, m.ModelVersion = session, version
	if len(rest) != 0 {
		return ErrShortPayload
	}
	m.SampleIDs = ids
	return nil
}

// FeatureBatch is a device's reply to a FeatureBatchRequest: its
// bit-packed binarized feature maps for Count samples, Count independent
// PackFeature payloads of (F·H·W+7)/8 bytes each, concatenated in request
// order. Each sample charges the f·o/8 bytes of Eq. (1)'s feature upload.
// Like SummaryBatch, the frame is identified by its link, not a device
// field.
type FeatureBatch struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// F, H, W give the packed feature map's shape: filters × height × width.
	F, H, W uint16
	// Count is the number of samples in the batch.
	Count uint16
	// Bits is the LSB-first bit-packed binarized feature payload. Decoding
	// aliases it into the frame's payload buffer.
	Bits []byte
}

// MsgType implements Message.
func (*FeatureBatch) MsgType() MsgType { return TypeFeatureBatch }

// SessionID implements Sessioned.
func (m *FeatureBatch) SessionID() uint64 { return m.Session }

// SampleBytes returns the packed size of one sample's feature map.
func (m *FeatureBatch) SampleBytes() int {
	return (int(m.F)*int(m.H)*int(m.W) + 7) / 8
}

// Sample returns the packed bits of the i-th sample.
func (m *FeatureBatch) Sample(i int) []byte {
	sb := m.SampleBytes()
	return m.Bits[i*sb : (i+1)*sb]
}

func (m *FeatureBatch) appendPayload(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Session)
	dst = binary.LittleEndian.AppendUint16(dst, m.F)
	dst = binary.LittleEndian.AppendUint16(dst, m.H)
	dst = binary.LittleEndian.AppendUint16(dst, m.W)
	dst = binary.LittleEndian.AppendUint16(dst, m.Count)
	return append(dst, m.Bits...)
}

func (m *FeatureBatch) decodePayload(src []byte) error {
	session, src, err := readUvarint(src)
	if err != nil {
		return err
	}
	if len(src) < 8 {
		return ErrShortPayload
	}
	m.Session = session
	m.F = binary.LittleEndian.Uint16(src[0:2])
	m.H = binary.LittleEndian.Uint16(src[2:4])
	m.W = binary.LittleEndian.Uint16(src[4:6])
	m.Count = binary.LittleEndian.Uint16(src[6:8])
	src = src[8:]
	want := int(m.Count) * m.SampleBytes()
	if len(src) != want {
		return fmt.Errorf("wire: feature batch has %d bytes for %d samples of %d×%d×%d bits (want %d)",
			len(src), m.Count, m.F, m.H, m.W, want)
	}
	m.Bits = src
	return nil
}

// appendIDMaskPairs encodes a uint16 count followed by (id, mask) pairs.
func appendIDMaskPairs(dst []byte, ids []uint64, masks []uint16) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ids)))
	for i, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, id)
		dst = binary.LittleEndian.AppendUint16(dst, masks[i])
	}
	return dst
}

// readIDMaskPairs decodes an appendIDMaskPairs list, returning the rest.
func readIDMaskPairs(src []byte) ([]uint64, []uint16, []byte, error) {
	if len(src) < 2 {
		return nil, nil, nil, ErrShortPayload
	}
	n := int(binary.LittleEndian.Uint16(src[0:2]))
	src = src[2:]
	if len(src) < 10*n {
		return nil, nil, nil, ErrShortPayload
	}
	ids := make([]uint64, n)
	masks := make([]uint16, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint64(src[10*i:])
		masks[i] = binary.LittleEndian.Uint16(src[10*i+8:])
	}
	return ids, masks, src[10*n:], nil
}

// Escalation is the one request frame of both upstream hops: it carries
// a session's hard samples — the ones that missed every exit below — to a
// replica of the next tier, which answers with a single ResultBatch in
// SampleIDs order. The gateway sends its local-exit misses to an edge
// node in a three-tier hierarchy or to the cloud in a two-tier one, with
// one feature map per covering device; an edge sends its edge-exit misses
// to the cloud as one feature map per sample (Devices 1, every mask 1,
// the edge section's output shape, no thresholds).
//
// Masks[i] has bit d set when device d's feature map covers sample i
// (masks may differ across samples: a device can drop out mid-session).
// Bits holds every covered map, device-major: device d's maps of the
// samples it covers in batch order, then device d+1's, each a
// PackFeature payload of (F·H·W+7)/8 bytes — the f·o/8 bytes of Eq. (1)'s
// feature upload per device and sample. Because the frame is the whole
// escalation, a receiver keeps no per-session state between frames and a
// replica pool can re-send it verbatim to another replica. Decoding checks
// the framing only: whether Bits holds PresentCount maps of the announced
// shape is the receiver's check, so a malformed escalation earns a typed
// error reply on a connection that stays usable.
type Escalation struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// ModelVersion pins the session's weights; 0 means the active version.
	ModelVersion uint64
	// Devices is the number of feature-map sources per sample: the
	// hierarchy's device count, or 1 on the edge→cloud hop.
	Devices uint16
	// F, H, W give each feature map's shape: filters × height × width.
	F, H, W uint16
	// SampleIDs lists the escalating samples, batch order.
	SampleIDs []uint64
	// Masks[i] has bit d set when device d's features cover sample i.
	Masks []uint16
	// Thresholds holds the remaining normalized-entropy exit thresholds,
	// nearest tier first, at full float64 precision so distributed exit
	// decisions are bit-identical to in-process staged inference: an edge
	// consumes Thresholds[0] as its own exit criterion (an empty list
	// means it never exits). It is empty on every hop to the cloud, which
	// always classifies.
	Thresholds []float64
	// Bits is the device-major packed feature payload. Decoding aliases
	// it into the frame's payload buffer.
	Bits []byte
}

// MsgType implements Message.
func (*Escalation) MsgType() MsgType { return TypeEscalation }

// SessionID implements Sessioned.
func (m *Escalation) SessionID() uint64 { return m.Session }

// SampleBytes returns the packed size of one device feature map.
func (m *Escalation) SampleBytes() int {
	return (int(m.F)*int(m.H)*int(m.W) + 7) / 8
}

// PresentCount returns the number of device feature maps the frame
// carries: the popcounts of the sample masks, summed.
func (m *Escalation) PresentCount() int {
	c := 0
	for _, mask := range m.Masks {
		c += bits.OnesCount16(mask)
	}
	return c
}

func (m *Escalation) appendPayload(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Session)
	dst = binary.AppendUvarint(dst, m.ModelVersion)
	dst = binary.LittleEndian.AppendUint16(dst, m.Devices)
	dst = binary.LittleEndian.AppendUint16(dst, m.F)
	dst = binary.LittleEndian.AppendUint16(dst, m.H)
	dst = binary.LittleEndian.AppendUint16(dst, m.W)
	dst = appendIDMaskPairs(dst, m.SampleIDs, m.Masks)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Thresholds)))
	for _, t := range m.Thresholds {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t))
	}
	return append(dst, m.Bits...)
}

func (m *Escalation) decodePayload(src []byte) error {
	session, version, src, err := readSessionVersion(src)
	if err != nil {
		return err
	}
	if len(src) < 8 {
		return ErrShortPayload
	}
	m.Session, m.ModelVersion = session, version
	m.Devices = binary.LittleEndian.Uint16(src[0:2])
	m.F = binary.LittleEndian.Uint16(src[2:4])
	m.H = binary.LittleEndian.Uint16(src[4:6])
	m.W = binary.LittleEndian.Uint16(src[6:8])
	ids, masks, rest, err := readIDMaskPairs(src[8:])
	if err != nil {
		return err
	}
	if len(rest) < 2 {
		return ErrShortPayload
	}
	n := int(binary.LittleEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if len(rest) < 8*n {
		return ErrShortPayload
	}
	var ts []float64
	if n > 0 {
		ts = make([]float64, n)
		for i := range ts {
			ts[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
		}
	}
	m.SampleIDs, m.Masks, m.Thresholds = ids, masks, ts
	m.Bits = rest[8*n:]
	return nil
}

// BatchVerdict is one sample's outcome inside a ResultBatch.
type BatchVerdict struct {
	// SampleID identifies the sample being classified.
	SampleID uint64
	// Exit names the tier that produced the verdict.
	Exit ExitPoint
	// Class is the predicted class index.
	Class uint16
	// Probs holds the per-class probabilities.
	Probs []float32
}

// ResultBatch reports the per-sample verdicts of one classification
// session in a single frame. Verdicts may carry different exits: in a three-tier
// hierarchy the edge answers its confident samples at ExitEdge and relays
// cloud verdicts for the rest.
type ResultBatch struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// Verdicts are the per-sample results, in header order.
	Verdicts []BatchVerdict
}

// MsgType implements Message.
func (*ResultBatch) MsgType() MsgType { return TypeResultBatch }

// SessionID implements Sessioned.
func (m *ResultBatch) SessionID() uint64 { return m.Session }

func (m *ResultBatch) appendPayload(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Session)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Verdicts)))
	for _, v := range m.Verdicts {
		dst = binary.LittleEndian.AppendUint64(dst, v.SampleID)
		dst = append(dst, byte(v.Exit))
		dst = binary.LittleEndian.AppendUint16(dst, v.Class)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.Probs)))
		for _, p := range v.Probs {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(p))
		}
	}
	return dst
}

func (m *ResultBatch) decodePayload(src []byte) error {
	session, src, err := readUvarint(src)
	if err != nil {
		return err
	}
	if len(src) < 2 {
		return ErrShortPayload
	}
	m.Session = session
	n := int(binary.LittleEndian.Uint16(src[0:2]))
	src = src[2:]
	m.Verdicts = make([]BatchVerdict, 0, n)
	for i := 0; i < n; i++ {
		if len(src) < 13 {
			return ErrShortPayload
		}
		v := BatchVerdict{
			SampleID: binary.LittleEndian.Uint64(src[0:8]),
			Exit:     ExitPoint(src[8]),
			Class:    binary.LittleEndian.Uint16(src[9:11]),
		}
		np := int(binary.LittleEndian.Uint16(src[11:13]))
		src = src[13:]
		if len(src) < 4*np {
			return ErrShortPayload
		}
		v.Probs = make([]float32, np)
		for j := range v.Probs {
			v.Probs[j] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*j:]))
		}
		src = src[4*np:]
		m.Verdicts = append(m.Verdicts, v)
	}
	if len(src) != 0 {
		return ErrShortPayload
	}
	return nil
}
