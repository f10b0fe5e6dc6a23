//go:build ignore

// Regenerates the checked-in FuzzDecode seed corpus from the current
// codec, so the seeds stay valid frames across protocol version bumps:
//
//	cd internal/wire && go run gen_corpus.go
//
// Run it after any layout or version change, and add an entry here for
// every new message type (see docs/WIRE.md, "Evolving the protocol").
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"github.com/ddnn/ddnn-go/internal/wire"
)

func frame(m wire.Message) []byte {
	var buf bytes.Buffer
	if _, err := wire.Encode(&buf, m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// rawFrame frames an arbitrary payload under a valid header, so a
// corrupt payload reaches the type's decoder instead of failing the
// header read.
func rawFrame(t wire.MsgType, payload []byte) []byte {
	hdr := []byte{0, 0, wire.Version, byte(t), 0, 0, 0, 0}
	binary.LittleEndian.PutUint16(hdr[0:2], wire.Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	return append(hdr, payload...)
}

func main() {
	summary := frame(&wire.SummaryBatch{Session: 17, Classes: 3, Count: 1,
		Present: wire.PackPresent([]bool{true}), Probs: []float32{0.1, 0.7, 0.2}})
	badtype := append([]byte(nil), summary...)
	badtype[3] = 200
	oversize := append([]byte(nil), frame(&wire.Heartbeat{NodeID: "edge-0", Seq: 12345})[:8]...)
	oversize[4], oversize[5], oversize[6], oversize[7] = 0xFF, 0xFF, 0xFF, 0x7F

	// Uvarint edge cases for the Session tag and ModelVersion pin: a
	// session whose varint stops one byte short, and one that runs to 11
	// bytes and overflows uint64.
	varintTruncated := rawFrame(wire.TypeCaptureBatch, []byte{0xFF, 0xFF})
	varintOverflow := rawFrame(wire.TypeResultBatch,
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0})

	// One seed per entry of seedMessages() in fuzz_test.go, in the same
	// order: the per-sample protocol roles (capture, local summary,
	// feature request and upload, cloud and edge classify, edge feature,
	// classify result) keep their seed names as batch-of-one frames, the
	// multi-sample batches follow, then the uvarint edge cases. The edge
	// feature seeds hold edge→cloud Escalations (one map per sample). The
	// corruptions are named so the wire tests know to skip them (badtype,
	// truncated, overflow, oversize, empty).
	seeds := map[string][]byte{
		"seed-local-summary":           summary,
		"seed-local-summary-badtype":   badtype,
		"seed-local-summary-truncated": summary[:20],
		"seed-feature-req":             frame(&wire.FeatureBatchRequest{Session: 3, ModelVersion: 2, SampleIDs: []uint64{99}}),
		"seed-feature-upload":          frame(&wire.FeatureBatch{Session: 9, F: 4, H: 16, W: 16, Count: 1, Bits: make([]byte, 4*16*16/8)}),
		"seed-classify": frame(&wire.ResultBatch{Session: 1 << 40, Verdicts: []wire.BatchVerdict{
			{SampleID: 5, Exit: wire.ExitCloud, Class: 2, Probs: []float32{0.05, 0.05, 0.9}},
		}}),
		"seed-heartbeat":   frame(&wire.Heartbeat{NodeID: "edge-0", Seq: 12345}),
		"seed-error":       frame(&wire.Error{Session: 12, Code: 404, Msg: "no such sample"}),
		"seed-error-model": frame(&wire.Error{Session: 12, Code: 426, Msg: "model version 9 not in registry"}),
		"seed-capture":     frame(&wire.CaptureBatch{Session: 2, ModelVersion: 1, SampleIDs: []uint64{31337}}),
		"seed-cloud-classify": frame(&wire.Escalation{Session: 6, ModelVersion: 3, Devices: 6, F: 4, H: 16, W: 16,
			SampleIDs: []uint64{8}, Masks: []uint16{0b101101}, Bits: make([]byte, 4*128)}),
		"seed-edge-classify": frame(&wire.Escalation{Session: 11, ModelVersion: 4, Devices: 6, F: 4, H: 16, W: 16,
			SampleIDs: []uint64{9}, Masks: []uint16{0b011011}, Thresholds: []float64{0.8, 0.5}, Bits: make([]byte, 4*128)}),
		"seed-edge-feature": frame(&wire.Escalation{Session: 13, ModelVersion: 5, Devices: 1, F: 8, H: 8, W: 8,
			SampleIDs: []uint64{21}, Masks: []uint16{1}, Bits: make([]byte, 64)}),
		"seed-capture-batch": frame(&wire.CaptureBatch{Session: 14, ModelVersion: 2, SampleIDs: []uint64{3, 1, 4}}),
		"seed-summary-batch": frame(&wire.SummaryBatch{Session: 15, Classes: 3, Count: 3,
			Present: wire.PackPresent([]bool{true, false, true}),
			Probs:   []float32{0.1, 0.7, 0.2, 0.9, 0.05, 0.05}}),
		"seed-feature-batch-req": frame(&wire.FeatureBatchRequest{Session: 16, ModelVersion: 2, SampleIDs: []uint64{7, 9}}),
		"seed-feature-batch":     frame(&wire.FeatureBatch{Session: 17, F: 4, H: 16, W: 16, Count: 2, Bits: make([]byte, 256)}),
		"seed-escalation": frame(&wire.Escalation{Session: 18, ModelVersion: 6, Devices: 6, F: 1, H: 4, W: 4,
			SampleIDs: []uint64{5, 6}, Masks: []uint16{0b111111, 0b101101}, Bits: make([]byte, 10*2)}),
		"seed-escalation-edge": frame(&wire.Escalation{Session: 19, ModelVersion: 7, Devices: 6, F: 1, H: 4, W: 4,
			SampleIDs: []uint64{5, 7}, Masks: []uint16{0b011011, 0b000001}, Thresholds: []float64{0.8, 0.5}, Bits: make([]byte, 5*2)}),
		"seed-edge-feature-batch": frame(&wire.Escalation{Session: 20, ModelVersion: 8, Devices: 1, F: 8, H: 8, W: 8,
			SampleIDs: []uint64{11, 12}, Masks: []uint16{1, 1}, Bits: make([]byte, 128)}),
		"seed-result-batch": frame(&wire.ResultBatch{Session: 21, Verdicts: []wire.BatchVerdict{
			{SampleID: 5, Exit: wire.ExitEdge, Class: 1, Probs: []float32{0.1, 0.8, 0.1}},
			{SampleID: 6, Exit: wire.ExitCloud, Class: 0, Probs: []float32{0.9, 0.05, 0.05}},
		}}),
		"seed-device-hello":   frame(&wire.DeviceHello{NodeID: "device-4", Slot: 4, Tenant: "tenant-a", Addr: "127.0.0.1:9104"}),
		"seed-device-welcome": frame(&wire.DeviceWelcome{Slot: 4, Devices: 6, ConfigVersion: 17}),
		"seed-device-goodbye": frame(&wire.DeviceGoodbye{NodeID: "device-4", Slot: 4, Reason: "draining"}),
		"seed-varint-capture": frame(&wire.CaptureBatch{Session: 127, ModelVersion: 128, SampleIDs: []uint64{1 << 63}}),
		"seed-varint-summary": frame(&wire.SummaryBatch{Session: 1 << 63, Classes: 3, Count: 1,
			Present: wire.PackPresent([]bool{true}), Probs: []float32{0.2, 0.3, 0.5}}),
		"seed-varint-error": frame(&wire.Error{Session: math.MaxUint64, Code: 503, Msg: "cloud unreachable"}),
		"seed-varint-escalation": frame(&wire.Escalation{Session: 1 << 14, ModelVersion: math.MaxUint64, Devices: 2, F: 1, H: 4, W: 4,
			SampleIDs: []uint64{1<<63 + 1}, Masks: []uint16{0b11}, Bits: make([]byte, 2*2)}),
		"seed-varint-edge-escalation": frame(&wire.Escalation{Session: 1 << 21, ModelVersion: 1 << 63, Devices: 1, F: 8, H: 8, W: 8,
			SampleIDs: []uint64{1<<63 + 2}, Masks: []uint16{1}, Bits: make([]byte, 64)}),
		"seed-varint-truncated": varintTruncated,
		"seed-varint-overflow":  varintOverflow,
		"seed-empty":            {},
		"seed-oversize-header":  oversize,
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	// Seeds of retired message types go: the map above is the whole
	// committed corpus (fuzz findings, which are not named seed-*, stay).
	old, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil {
		panic(err)
	}
	for _, path := range old {
		if _, keep := seeds[filepath.Base(path)]; !keep {
			if err := os.Remove(path); err != nil {
				panic(err)
			}
			fmt.Printf("removed %s\n", filepath.Base(path))
		}
	}
	for name, data := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", name, len(data))
	}
}
