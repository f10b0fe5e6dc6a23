// Package wire defines the binary message protocol spoken between DDNN
// cluster nodes (end devices, the local aggregator/gateway, the edge and
// the cloud). Frames are length-prefixed with a fixed header:
//
//	magic   uint16  0xDD17 ("DDNN ICDCS'17")
//	version uint8   6
//	type    uint8   message type
//	length  uint32  payload length in bytes
//
// followed by a type-specific little-endian payload. The protocol carries
// exactly the payloads of the paper's communication model (Eq. 1): the
// float32 class-summary vector each device sends to its local aggregator
// (4·|C| bytes), the bit-packed binarized feature map uploaded on a
// local-exit miss (f·o/8 bytes), and — for three-tier hierarchies (Fig. 2
// configs d/e) — the bit-packed edge feature map the edge escalates to the
// cloud on an edge-exit miss.
//
// Every classification session is a batch of n ≥ 1 samples: a single
// sample is a batch of one. Each hop has one request frame and one reply
// frame — CaptureBatch/SummaryBatch and FeatureBatchRequest/FeatureBatch
// on the device links, and one Escalation answered by a ResultBatch on
// both upstream hops: gateway→edge (or gateway→cloud in a two-tier
// hierarchy) and edge→cloud.
//
// Since version 2 every session-scoped message carries a Session tag, so a
// single connection can interleave frames from many concurrent inference
// sessions and each endpoint demultiplexes replies by session instead of
// assuming lock-step request/reply. Version 3 added a ModelVersion pin to
// every serving-path request, so a session started during a rolling model
// reload is answered by one model version at every hop (0 pins nothing and
// means "the responder's active version"). Version 4 retired the
// per-sample frames and folded the upstream escalation header and its
// per-device feature frames into the single Escalation frame. Version 5
// encodes every frame's Session tag and ModelVersion pin as uvarints
// (encoding/binary's AppendUvarint), so the framing of a one-sample
// session shrinks while sample IDs and every Eq. 1 payload keep their
// fixed widths. Version 6 carries the edge→cloud hop in an Escalation
// too, retiring EdgeFeatureBatch, and drops the Hello frame no node sent
// and the Device field no node read from SummaryBatch and FeatureBatch.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Magic identifies DDNN protocol frames.
const Magic uint16 = 0xDD17

// Version is the protocol version this package speaks. Version 2 added
// the Session tag that multiplexes concurrent inference sessions over one
// connection; version 3 added the model-version pin on every serving-path
// request (rolling model reloads); version 4 made every session a batch
// and the upstream escalation a single frame; version 5 encodes the
// Session tag and ModelVersion pin as uvarints; version 6 sends one
// Escalation frame on both upstream hops and drops the unread Hello frame
// and SummaryBatch/FeatureBatch Device fields.
const Version uint8 = 6

// MaxPayload bounds frame payloads to guard against corrupt or hostile
// length fields. Feature maps in this system are tiny; 16 MiB is generous.
const MaxPayload = 16 << 20

// headerSize is the encoded frame-header length in bytes.
const headerSize = 8

// MsgType identifies a message's payload schema.
type MsgType uint8

// Message types. Numbers of types retired by a protocol version are
// never reused (see docs/WIRE.md).
const (
	// TypeHeartbeat is the liveness signal used for failure detection.
	TypeHeartbeat MsgType = 6
	// TypeError reports a protocol or processing error.
	TypeError MsgType = 7
	// TypeCaptureBatch asks a device to process a batch of sensor frames
	// in one forward pass and reply with a SummaryBatch.
	TypeCaptureBatch MsgType = 12
	// TypeSummaryBatch carries a device's per-sample class summaries for
	// a whole capture batch, with a presence bitmask for absent frames.
	TypeSummaryBatch MsgType = 13
	// TypeFeatureBatchRequest asks a device for the feature maps of the
	// batch subset that missed the local exit.
	TypeFeatureBatchRequest MsgType = 14
	// TypeFeatureBatch carries one device's bit-packed feature maps for
	// the requested samples in a single frame.
	TypeFeatureBatch MsgType = 15
	// TypeResultBatch reports the per-sample verdicts of one session in a
	// single frame.
	TypeResultBatch MsgType = 19
	// TypeDeviceHello opens a registration handshake: a device asks the
	// gateway's registration plane to admit it into a device slot.
	TypeDeviceHello MsgType = 20
	// TypeDeviceWelcome acknowledges an admission or departure and
	// reports the resulting topology config version.
	TypeDeviceWelcome MsgType = 21
	// TypeDeviceGoodbye deregisters a device slot from the live topology.
	TypeDeviceGoodbye MsgType = 22
	// TypeEscalation carries a session's hard samples — their device
	// masks, the relayed exit thresholds and every covered feature map —
	// up one tier: gateway→edge, gateway→cloud or edge→cloud.
	TypeEscalation MsgType = 23
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeHeartbeat:
		return "Heartbeat"
	case TypeError:
		return "Error"
	case TypeCaptureBatch:
		return "CaptureBatch"
	case TypeSummaryBatch:
		return "SummaryBatch"
	case TypeFeatureBatchRequest:
		return "FeatureBatchRequest"
	case TypeFeatureBatch:
		return "FeatureBatch"
	case TypeResultBatch:
		return "ResultBatch"
	case TypeDeviceHello:
		return "DeviceHello"
	case TypeDeviceWelcome:
		return "DeviceWelcome"
	case TypeDeviceGoodbye:
		return "DeviceGoodbye"
	case TypeEscalation:
		return "Escalation"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Message is any DDNN protocol message.
type Message interface {
	// MsgType returns the frame type tag.
	MsgType() MsgType
	// appendPayload appends the encoded payload.
	appendPayload(dst []byte) []byte
	// decodePayload parses the payload.
	decodePayload(src []byte) error
}

// Sessioned is implemented by messages that belong to one classification
// session. Receivers route such frames to the session's waiter, which is
// what lets many sessions share a connection.
type Sessioned interface {
	SessionID() uint64
}

// Protocol errors.
var (
	ErrBadMagic      = errors.New("wire: bad frame magic")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrUnknownType   = errors.New("wire: unknown message type")
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxPayload")
	ErrShortPayload  = errors.New("wire: payload truncated")
)

// frameBufs recycles encode buffers: every io.Writer this package
// targets (net.Conn, net.Pipe, the link simulator) has released or
// copied the slice by the time Write returns, so frames can be reused.
var frameBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// Encode writes one framed message and returns the number of bytes
// written. The frame is assembled in a pooled buffer, so steady-state
// encoding does not allocate.
func Encode(w io.Writer, m Message) (int, error) {
	bp := frameBufs.Get().(*[]byte)
	defer func() {
		*bp = (*bp)[:0]
		frameBufs.Put(bp)
	}()
	frame := (*bp)[:headerSize] // pool's New caps at 1024 ≥ headerSize
	frame = m.appendPayload(frame)
	*bp = frame
	payloadLen := len(frame) - headerSize
	if payloadLen > MaxPayload {
		return 0, ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint16(frame[0:2], Magic)
	frame[2] = Version
	frame[3] = byte(m.MsgType())
	binary.LittleEndian.PutUint32(frame[4:8], uint32(payloadLen))
	n, err := w.Write(frame)
	if err != nil {
		return n, fmt.Errorf("wire: write frame: %w", err)
	}
	return n, nil
}

// Decode reads one framed message.
func Decode(r io.Reader) (Message, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read header: %w", err)
	}
	if binary.LittleEndian.Uint16(hdr[0:2]) != Magic {
		return nil, ErrBadMagic
	}
	if hdr[2] != Version {
		return nil, ErrBadVersion
	}
	length := binary.LittleEndian.Uint32(hdr[4:8])
	if length > MaxPayload {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: read payload: %w", err)
	}
	m, err := newMessage(MsgType(hdr[3]))
	if err != nil {
		return nil, err
	}
	if err := m.decodePayload(payload); err != nil {
		return nil, err
	}
	return m, nil
}

func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeHeartbeat:
		return &Heartbeat{}, nil
	case TypeError:
		return &Error{}, nil
	case TypeCaptureBatch:
		return &CaptureBatch{}, nil
	case TypeSummaryBatch:
		return &SummaryBatch{}, nil
	case TypeFeatureBatchRequest:
		return &FeatureBatchRequest{}, nil
	case TypeFeatureBatch:
		return &FeatureBatch{}, nil
	case TypeResultBatch:
		return &ResultBatch{}, nil
	case TypeDeviceHello:
		return &DeviceHello{}, nil
	case TypeDeviceWelcome:
		return &DeviceWelcome{}, nil
	case TypeDeviceGoodbye:
		return &DeviceGoodbye{}, nil
	case TypeEscalation:
		return &Escalation{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
}

// EncodedSize returns the full frame size Encode would produce for m.
func EncodedSize(m Message) int {
	return headerSize + len(m.appendPayload(nil))
}
