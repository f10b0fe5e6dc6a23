package wire

import (
	"encoding/binary"
	"fmt"
)

// SummaryPayloadBytes returns the Eq. (1) accounting charge of one
// sample's class summary: 4·|C| bytes, excluding framing overhead.
func SummaryPayloadBytes(classes int) int { return 4 * classes }

// ExitPoint identifies where a sample was classified.
type ExitPoint uint8

// Exit points in hierarchy order.
const (
	ExitLocal ExitPoint = iota + 1
	ExitEdge
	ExitCloud
)

// String names the exit point.
func (e ExitPoint) String() string {
	switch e {
	case ExitLocal:
		return "local"
	case ExitEdge:
		return "edge"
	case ExitCloud:
		return "cloud"
	default:
		return fmt.Sprintf("ExitPoint(%d)", uint8(e))
	}
}

// Heartbeat is the liveness signal for failure detection.
type Heartbeat struct {
	// NodeID names the sending node.
	NodeID string
	// Seq is the probe sequence number the receiver echoes back.
	Seq uint64
}

// MsgType implements Message.
func (*Heartbeat) MsgType() MsgType { return TypeHeartbeat }

func (m *Heartbeat) appendPayload(dst []byte) []byte {
	dst = appendString(dst, m.NodeID)
	return binary.LittleEndian.AppendUint64(dst, m.Seq)
}

func (m *Heartbeat) decodePayload(src []byte) error {
	s, rest, err := readString(src)
	if err != nil {
		return err
	}
	if len(rest) != 8 {
		return ErrShortPayload
	}
	m.NodeID = s
	m.Seq = binary.LittleEndian.Uint64(rest)
	return nil
}

// Error reports a protocol or processing failure. Session routes the error
// to the inference session it aborts; zero means connection-scoped.
type Error struct {
	// Session tags the inference session this frame belongs to.
	Session uint64
	// Code is an HTTP-style status (400 bad request, 426 unknown model
	// version, 503 tier above the responder unreachable).
	Code uint16
	// Msg is the human-readable error description.
	Msg string
}

// MsgType implements Message.
func (*Error) MsgType() MsgType { return TypeError }

// SessionID implements Sessioned.
func (m *Error) SessionID() uint64 { return m.Session }

// Error implements error, so a receiver can return an Error reply as is.
func (m *Error) Error() string { return fmt.Sprintf("error %d: %s", m.Code, m.Msg) }

func (m *Error) appendPayload(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, m.Session)
	dst = binary.LittleEndian.AppendUint16(dst, m.Code)
	return appendString(dst, m.Msg)
}

func (m *Error) decodePayload(src []byte) error {
	session, src, err := readUvarint(src)
	if err != nil {
		return err
	}
	if len(src) < 2 {
		return ErrShortPayload
	}
	m.Session = session
	m.Code = binary.LittleEndian.Uint16(src[0:2])
	s, rest, err := readString(src[2:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ErrShortPayload
	}
	m.Msg = s
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func readString(src []byte) (string, []byte, error) {
	if len(src) < 2 {
		return "", nil, ErrShortPayload
	}
	n := int(binary.LittleEndian.Uint16(src[0:2]))
	src = src[2:]
	if len(src) < n {
		return "", nil, ErrShortPayload
	}
	return string(src[:n]), src[n:], nil
}
