package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	n, err := Encode(&buf, m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if n != buf.Len() {
		t.Errorf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	if n != EncodedSize(m) {
		t.Errorf("EncodedSize = %d, Encode wrote %d", EncodedSize(m), n)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestRoundTripAllMessageTypes(t *testing.T) {
	tests := []struct {
		name string
		msg  Message
	}{
		// Since version 4 the per-sample protocol roles — capture request,
		// local summary, feature request and upload, cloud and edge
		// classify, edge feature and classify result — are batch-of-one
		// frames; these entries keep the role names. Since version 6 the
		// edge feature rides an edge-shaped Escalation (one map per
		// sample, every mask 1, no thresholds).
		{"LocalSummary", &SummaryBatch{Session: 17, Classes: 3, Count: 1,
			Present: PackPresent([]bool{true}), Probs: []float32{0.1, 0.7, 0.2}}},
		{"LocalSummary empty", &SummaryBatch{Session: 1, Classes: 0, Count: 1,
			Present: PackPresent([]bool{true}), Probs: []float32{}}},
		{"FeatureRequest", &FeatureBatchRequest{Session: 3, SampleIDs: []uint64{99}}},
		{"FeatureUpload", &FeatureBatch{Session: 9, F: 4, H: 16, W: 16, Count: 1, Bits: make([]byte, 4*16*16/8)}},
		{"ClassifyResult", &ResultBatch{Session: 1 << 40, Verdicts: []BatchVerdict{
			{SampleID: 5, Exit: ExitCloud, Class: 2, Probs: []float32{0.05, 0.05, 0.9}},
		}}},
		{"Heartbeat", &Heartbeat{NodeID: "edge-0", Seq: 12345}},
		{"Error", &Error{Session: 12, Code: 404, Msg: "no such sample"}},
		{"CaptureRequest", &CaptureBatch{Session: 2, SampleIDs: []uint64{31337}}},
		{"CloudClassify", &Escalation{Session: 6, Devices: 6, F: 4, H: 2, W: 2,
			SampleIDs: []uint64{8}, Masks: []uint16{0b101101}, Bits: make([]byte, 4*2)}},
		{"EdgeClassify", &Escalation{Session: 11, Devices: 6, F: 4, H: 2, W: 2,
			SampleIDs: []uint64{9}, Masks: []uint16{0b011011}, Thresholds: []float64{0.8}, Bits: make([]byte, 4*2)}},
		{"EdgeClassify deep", &Escalation{Session: 12, Devices: 4, F: 4, H: 2, W: 2,
			SampleIDs: []uint64{10}, Masks: []uint16{0b1111}, Thresholds: []float64{0.8, 0.5, 0.3}, Bits: make([]byte, 4*2)}},
		{"EdgeFeature", &Escalation{Session: 13, Devices: 1, F: 8, H: 8, W: 8,
			SampleIDs: []uint64{21}, Masks: []uint16{1}, Bits: make([]byte, 8*8*8/8)}},
		{"CaptureBatch", &CaptureBatch{Session: 14, SampleIDs: []uint64{3, 1, 4, 1 << 40}}},
		{"SummaryBatch", &SummaryBatch{Session: 15, Classes: 3, Count: 4,
			Present: PackPresent([]bool{true, false, true, true}),
			Probs:   []float32{0.1, 0.7, 0.2, 0.3, 0.3, 0.4, 0.9, 0.05, 0.05}}},
		{"SummaryBatch all absent", &SummaryBatch{Session: 15, Classes: 3, Count: 2,
			Present: PackPresent([]bool{false, false}), Probs: []float32{}}},
		{"FeatureBatchRequest", &FeatureBatchRequest{Session: 16, SampleIDs: []uint64{7, 9}}},
		{"FeatureBatch", &FeatureBatch{Session: 17, F: 4, H: 16, W: 16, Count: 2, Bits: make([]byte, 2*4*16*16/8)}},
		{"CloudClassifyBatch", &Escalation{Session: 18, ModelVersion: 3, Devices: 6, F: 1, H: 4, W: 4,
			SampleIDs: []uint64{5, 6, 7}, Masks: []uint16{0b111111, 0b101101, 0b000001}, Bits: make([]byte, 11*2)}},
		{"EdgeClassifyBatch", &Escalation{Session: 19, ModelVersion: 4, Devices: 6, F: 1, H: 4, W: 4,
			SampleIDs: []uint64{5, 6}, Masks: []uint16{0b111111, 0b011011}, Thresholds: []float64{0.8, 0.5}, Bits: make([]byte, 10*2)}},
		{"EdgeFeatureBatch", &Escalation{Session: 20, Devices: 1, F: 8, H: 8, W: 8,
			SampleIDs: []uint64{11, 12, 13}, Masks: []uint16{1, 1, 1}, Bits: make([]byte, 3*8*8*8/8)}},
		{"ResultBatch", &ResultBatch{Session: 21, Verdicts: []BatchVerdict{
			{SampleID: 5, Exit: ExitLocal, Class: 1, Probs: []float32{0.1, 0.8, 0.1}},
			{SampleID: 6, Exit: ExitCloud, Class: 0, Probs: []float32{0.9, 0.05, 0.05}},
		}}},
		{"DeviceHello", &DeviceHello{NodeID: "device-2", Slot: 2, Tenant: "tenant-a", Addr: "127.0.0.1:9102"}},
		{"DeviceHello no tenant", &DeviceHello{NodeID: "device-0", Slot: 0, Addr: "device-0"}},
		{"DeviceWelcome", &DeviceWelcome{Slot: 2, Devices: 6, ConfigVersion: 41}},
		{"DeviceGoodbye", &DeviceGoodbye{NodeID: "device-2", Slot: 2, Reason: "draining"}},
		{"DeviceGoodbye bare", &DeviceGoodbye{NodeID: "device-5", Slot: 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := roundTrip(t, tt.msg)
			if !reflect.DeepEqual(got, tt.msg) {
				t.Errorf("round trip = %+v, want %+v", got, tt.msg)
			}
		})
	}
}

func TestSessionScopedMessagesImplementSessioned(t *testing.T) {
	// Every message the gateway demultiplexes by session must carry the
	// session tag; Heartbeat and the registration frames are
	// connection-scoped.
	sessioned := []Message{
		&Error{Session: 7},
		&CaptureBatch{Session: 7},
		&SummaryBatch{Session: 7},
		&FeatureBatchRequest{Session: 7},
		&FeatureBatch{Session: 7},
		&Escalation{Session: 7},
		&ResultBatch{Session: 7},
	}
	for _, m := range sessioned {
		s, ok := m.(Sessioned)
		if !ok {
			t.Errorf("%v does not implement Sessioned", m.MsgType())
			continue
		}
		if s.SessionID() != 7 {
			t.Errorf("%v SessionID = %d, want 7", m.MsgType(), s.SessionID())
		}
	}
	for _, m := range []Message{&Heartbeat{}, &DeviceHello{}, &DeviceWelcome{}, &DeviceGoodbye{}} {
		if _, ok := m.(Sessioned); ok {
			t.Errorf("%v must stay connection-scoped", m.MsgType())
		}
	}
}

func TestLocalSummaryPayloadChargesEq1(t *testing.T) {
	// Eq. (1) first term: 4 bytes per class.
	if got := SummaryPayloadBytes(3); got != 12 {
		t.Errorf("SummaryPayloadBytes(3) = %d, want 12", got)
	}
}

func TestFeatureUploadBitsMatchEq1(t *testing.T) {
	// Eq. (1) second term: f·o/8 bytes for f=4 filters of 16×16 bits, per
	// sample, on the device uplink and in the upstream escalation alike.
	for _, m := range []Message{
		&FeatureBatch{F: 4, H: 16, W: 16, Count: 1, Bits: make([]byte, 128)},
		&Escalation{Devices: 6, F: 4, H: 16, W: 16, SampleIDs: []uint64{1}, Masks: []uint16{0b1}, Bits: make([]byte, 128)},
	} {
		var buf bytes.Buffer
		if _, err := Encode(&buf, m); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		switch g := got.(type) {
		case *FeatureBatch:
			n = len(g.Bits)
		case *Escalation:
			n = len(g.Bits)
		}
		if n != 128 {
			t.Errorf("%v decoded %d feature bytes, want 128 = 4·256/8", m.MsgType(), n)
		}
	}
}

func TestFeatureUploadRejectsInconsistentBits(t *testing.T) {
	// An Escalation's bit count is its receiver's check (a typed 400 on a
	// connection that stays usable); a FeatureBatch's is the decoder's.
	var buf bytes.Buffer
	if _, err := Encode(&buf, &FeatureBatch{F: 4, H: 16, W: 16, Count: 1, Bits: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil {
		t.Error("Decode accepted a FeatureBatch with inconsistent bit count")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, &Heartbeat{NodeID: "x", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] = 0x00
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, &Heartbeat{NodeID: "x", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[2] = 99
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, &Heartbeat{NodeID: "x", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[3] = 200
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrUnknownType) {
		t.Errorf("err = %v, want ErrUnknownType", err)
	}
}

func TestDecodeRejectsOversizeFrame(t *testing.T) {
	raw := make([]byte, 8)
	raw[0], raw[1] = byte(Magic&0xFF), byte(Magic>>8)
	raw[2] = Version
	raw[3] = byte(TypeHeartbeat)
	raw[4], raw[5], raw[6], raw[7] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := Decode(bytes.NewReader(raw)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeEOFOnEmptyStream(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, &SummaryBatch{Classes: 3, Count: 1, Present: []byte{1}, Probs: []float32{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Decode(bytes.NewReader(raw[:len(raw)-4])); err == nil {
		t.Error("Decode accepted truncated stream")
	}
}

func TestStreamOfMessages(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Heartbeat{NodeID: "d0"},
		&CaptureBatch{SampleIDs: []uint64{1}},
		&SummaryBatch{Classes: 3, Count: 1, Present: []byte{1}, Probs: []float32{0.9, 0.05, 0.05}},
		&FeatureBatchRequest{SampleIDs: []uint64{1}},
		&FeatureBatch{F: 1, H: 4, W: 4, Count: 1, Bits: []byte{0xAB, 0xCD}},
		&Escalation{Devices: 1, F: 1, H: 4, W: 4, SampleIDs: []uint64{1}, Masks: []uint16{1}, Bits: []byte{0xAB, 0xCD}},
		&ResultBatch{Verdicts: []BatchVerdict{{SampleID: 1, Exit: ExitLocal, Class: 0, Probs: []float32{0.9, 0.05, 0.05}}}},
	}
	for _, m := range msgs {
		if _, err := Encode(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.MsgType() != want.MsgType() {
			t.Errorf("message %d type = %v, want %v", i, got.MsgType(), want.MsgType())
		}
	}
	if _, err := Decode(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("after stream end err = %v, want io.EOF", err)
	}
}

func TestLocalSummaryRoundTripProperty(t *testing.T) {
	// One sample's class summary rides a one-row SummaryBatch.
	f := func(session uint64, p0, p1, p2 float32) bool {
		in := &SummaryBatch{Session: session, Classes: 3, Count: 1,
			Present: []byte{1}, Probs: []float32{p0, p1, p2}}
		var buf bytes.Buffer
		if _, err := Encode(&buf, in); err != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil {
			return false
		}
		got, ok := out.(*SummaryBatch)
		if !ok {
			return false
		}
		if got.Session != session || !got.Has(0) || len(got.Probs) != 3 {
			return false
		}
		for i, p := range []float32{p0, p1, p2} {
			// NaN round-trips bit-exactly but compares unequal; compare bits.
			if got.Probs[i] != p && !(p != p && got.Probs[i] != got.Probs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHeartbeatRoundTripProperty(t *testing.T) {
	f := func(id string, seq uint64) bool {
		if len(id) > 60000 {
			id = id[:60000]
		}
		in := &Heartbeat{NodeID: id, Seq: seq}
		var buf bytes.Buffer
		if _, err := Encode(&buf, in); err != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil {
			return false
		}
		got, ok := out.(*Heartbeat)
		return ok && got.NodeID == id && got.Seq == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCloudClassifyPresentCount(t *testing.T) {
	// A cloud classify escalation counts one feature map per set mask bit,
	// summed over its samples.
	tests := []struct {
		masks []uint16
		want  int
	}{
		{nil, 0}, {[]uint16{0}, 0}, {[]uint16{1}, 1}, {[]uint16{0b111111}, 6},
		{[]uint16{0b101010}, 3}, {[]uint16{1 << 15}, 1}, {[]uint16{0b111111, 0b101101, 1}, 11},
	}
	for _, tt := range tests {
		m := &Escalation{Masks: tt.masks}
		if got := m.PresentCount(); got != tt.want {
			t.Errorf("PresentCount(%b) = %d, want %d", tt.masks, got, tt.want)
		}
	}
}

func TestMsgTypeAndExitStrings(t *testing.T) {
	for _, m := range seedMessages() {
		mt := m.MsgType()
		if mt.String() == "" || mt.String()[0] == 'M' {
			t.Errorf("MsgType(%d) has no name", mt)
		}
	}
	for _, e := range []ExitPoint{ExitLocal, ExitEdge, ExitCloud} {
		if e.String() == "" || e.String()[0] == 'E' {
			t.Errorf("ExitPoint(%d) has no name", e)
		}
	}
}

func TestRetiredMessageTypesAreUnknown(t *testing.T) {
	// Version 4 retired the per-sample frames (2–5, 8–11) and the
	// two-frame escalation headers (16, 17); version 6 retired Hello (1)
	// and EdgeFeatureBatch (18). Their numbers are never reused, so a
	// stray frame of a retired type is an unknown type.
	for _, mt := range []MsgType{1, 2, 3, 4, 5, 8, 9, 10, 11, 16, 17, 18} {
		if _, err := newMessage(mt); !errors.Is(err, ErrUnknownType) {
			t.Errorf("retired type %d: err = %v, want ErrUnknownType", mt, err)
		}
	}
}

// corruptSeeds names the committed FuzzDecode seeds that are corrupt on
// purpose; every other seed must be a valid frame.
var corruptSeeds = []string{"badtype", "truncated", "overflow", "oversize", "empty"}

func TestCommittedCorpusDecodes(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[MsgType]bool{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seed-") || slices.ContainsFunc(corruptSeeds, func(c string) bool {
			return strings.Contains(name, c)
		}) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a go test fuzz v1 []byte entry", name)
		}
		frame, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := Decode(strings.NewReader(frame))
		if err != nil {
			t.Errorf("%s does not decode at version %d: %v (regenerate with `go run gen_corpus.go`)", name, Version, err)
			continue
		}
		covered[m.MsgType()] = true
	}
	for _, m := range seedMessages() {
		if !covered[m.MsgType()] {
			t.Errorf("committed corpus has no seed of type %v", m.MsgType())
		}
	}
}

// sessionVarintEdges are the uvarint boundary values of the Session tag
// and ModelVersion pin: the 1-byte maximum, the first 2-byte value, the
// top bit alone and the 10-byte maximum.
var sessionVarintEdges = []uint64{0, 127, 128, 1 << 63, math.MaxUint64}

// sessionedAt returns one frame of every session-scoped type tagged
// with session v and, where the frame pins one, model version v.
func sessionedAt(v uint64) []Message {
	return []Message{
		&CaptureBatch{Session: v, ModelVersion: v, SampleIDs: []uint64{1 << 63}},
		&SummaryBatch{Session: v, Classes: 3, Count: 1,
			Present: PackPresent([]bool{true}), Probs: []float32{0.1, 0.7, 0.2}},
		&FeatureBatchRequest{Session: v, ModelVersion: v, SampleIDs: []uint64{99}},
		&FeatureBatch{Session: v, F: 1, H: 4, W: 4, Count: 1, Bits: []byte{0xAB, 0xCD}},
		&Escalation{Session: v, ModelVersion: v, Devices: 2, F: 1, H: 4, W: 4,
			SampleIDs: []uint64{8}, Masks: []uint16{0b11}, Thresholds: []float64{0.5}, Bits: make([]byte, 4)},
		&Escalation{Session: v, ModelVersion: v, Devices: 1, F: 1, H: 4, W: 4,
			SampleIDs: []uint64{21}, Masks: []uint16{1}, Bits: make([]byte, 2)},
		&ResultBatch{Session: v, Verdicts: []BatchVerdict{{SampleID: 5, Exit: ExitCloud, Class: 2, Probs: []float32{0.1, 0.9}}}},
		&Error{Session: v, Code: 426, Msg: "unknown model version"},
	}
}

func TestSessionVarintRoundTrip(t *testing.T) {
	for _, v := range sessionVarintEdges {
		for _, m := range sessionedAt(v) {
			got := roundTrip(t, m)
			if !reflect.DeepEqual(got, m) {
				t.Errorf("%v at session/version %d: round trip = %+v, want %+v", m.MsgType(), v, got, m)
			}
		}
	}
}

// TestDecodeRejectsBadVarint cuts every session-scoped frame inside its
// 10-byte Session varint, and for the frames that pin a model version
// inside the ModelVersion varint too, then replaces the Session with an
// 11-byte encoding: each must fail as a short payload, never decode.
func TestDecodeRejectsBadVarint(t *testing.T) {
	overflow := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	for _, m := range sessionedAt(math.MaxUint64) {
		payload := encodeFrame(t, m)[headerSize:]
		cuts := []int{0, 5, 9}
		switch m.(type) {
		case *CaptureBatch, *FeatureBatchRequest, *Escalation:
			cuts = append(cuts, 15, 19) // inside the ModelVersion varint
		}
		bad := map[string][]byte{"overflow": append(append([]byte(nil), overflow...), payload[10:]...)}
		for _, c := range cuts {
			bad["truncated at "+strconv.Itoa(c)] = payload[:c]
		}
		for name, p := range bad {
			frame := encodeFrame(t, m)[:headerSize]
			frame = append(frame, p...)
			frame[4], frame[5], frame[6], frame[7] = byte(len(p)), byte(len(p)>>8), 0, 0
			if _, err := Decode(bytes.NewReader(frame)); !errors.Is(err, ErrShortPayload) {
				t.Errorf("%v %s: err = %v, want ErrShortPayload", m.MsgType(), name, err)
			}
		}
	}
}

// TestOneSampleFrameBytes pins the framed size of a one-sample session's
// frames — the shape every idle-engine Classify takes — for a model
// version below 128: on the device links 21 B capture, 27 B summary (3
// classes), 21 B feature request and 146 B feature upload (4 filters of
// 16×16 bits), and 97 B for the edge→cloud Escalation of one edge map (8
// filters of 8×8 bits), while the session tag is below 2^14. Each frame
// carries one session tag, so every later varint byte adds 1 B to each
// frame: a gateway's session counter passes 2^14 after its first 16384
// sessions and 2^21 after about two million. Wire v4 spent 34/35/34/154 B
// on the device links at any session, and wire v5 29 B per summary and
// 148 B per upload; the Eq. 1 payload inside each frame is unchanged.
func TestOneSampleFrameBytes(t *testing.T) {
	for _, st := range []struct {
		sid   uint64
		extra int // framed bytes above the 2-byte-tag sizes
	}{{128, 0}, {1<<14 - 1, 0}, {1 << 14, 1}, {1<<21 - 1, 1}, {1 << 21, 2}, {1<<28 - 1, 2}} {
		sid := st.sid
		for _, tc := range []struct {
			msg  Message
			want int
		}{
			{&CaptureBatch{Session: sid, ModelVersion: 127, SampleIDs: []uint64{1 << 63}}, 21},
			{&SummaryBatch{Session: sid, Classes: 3, Count: 1,
				Present: PackPresent([]bool{true}), Probs: make([]float32, 3)}, 27},
			{&FeatureBatchRequest{Session: sid, ModelVersion: 127, SampleIDs: []uint64{1 << 63}}, 21},
			{&FeatureBatch{Session: sid, F: 4, H: 16, W: 16, Count: 1, Bits: make([]byte, 128)}, 146},
			{&Escalation{Session: sid, ModelVersion: 127, Devices: 1, F: 8, H: 8, W: 8,
				SampleIDs: []uint64{1 << 63}, Masks: []uint16{1}, Bits: make([]byte, 64)}, 97},
		} {
			if got, want := EncodedSize(tc.msg), tc.want+st.extra; got != want {
				t.Errorf("%v at session %d: %d B, want %d", tc.msg.MsgType(), sid, got, want)
			}
		}
	}
}
