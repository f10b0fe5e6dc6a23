package api

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/ddnn/ddnn-go"
)

// The e2e tests run the HTTP front door over a real in-process cluster
// (in-memory transport, trained model) and check that answers served
// over HTTP are bit-identical to the engine's own.
var (
	e2eOnce  sync.Once
	e2eModel *ddnn.Model
	e2eTest  *ddnn.Dataset
)

func e2eFixture(t *testing.T) (*ddnn.Model, *ddnn.Dataset) {
	t.Helper()
	e2eOnce.Do(func() {
		dcfg := ddnn.DefaultDatasetConfig()
		dcfg.Train, dcfg.Test = 120, 40
		train, test := ddnn.GenerateDataset(dcfg)
		cfg := ddnn.DefaultConfig()
		cfg.CloudFilters = 8
		m := ddnn.MustNewModel(cfg)
		tc := ddnn.DefaultTrainConfig()
		tc.Epochs = 3
		if _, err := m.Train(train, tc); err != nil {
			panic(err)
		}
		e2eModel, e2eTest = m, test
	})
	return e2eModel, e2eTest
}

func newE2EServer(t *testing.T, cfg Config) (*ddnn.Engine, *httptest.Server) {
	t.Helper()
	model, test := e2eFixture(t)
	eng, err := ddnn.NewEngine(model, test,
		ddnn.WithMaxConcurrency(8),
		ddnn.WithCloudReplicas(2), // a replicated upper tier, like production
		ddnn.WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	cfg.Engine = eng
	cfg.Devices = model.Cfg.Devices
	if cfg.AdminAuth != nil {
		cfg.ModelAdmin = eng
	}
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return eng, ts
}

// TestE2EClassifyMatchesEngine drives concurrent HTTP clients through a
// real cluster and checks every response against the engine's direct
// answer for the same sample: same class, same exit. Run under -race
// (CI does) it also proves the full HTTP→engine path is race-free.
func TestE2EClassifyMatchesEngine(t *testing.T) {
	eng, ts := newE2EServer(t, Config{})
	ctx := context.Background()

	const samples = 10
	want := make([]ddnn.Result, samples)
	for id := 0; id < samples; id++ {
		res, err := eng.Classify(ctx, uint64(id))
		if err != nil {
			t.Fatalf("baseline sample %d: %v", id, err)
		}
		want[id] = res
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*samples)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := 0; id < samples; id++ {
				resp, err := ts.Client().Post(ts.URL+"/v1/classify", "application/json",
					strings.NewReader(fmt.Sprintf(`{"sample_id": %d}`, id)))
				if err != nil {
					errs <- err
					return
				}
				var cr classifyResponse
				derr := json.NewDecoder(resp.Body).Decode(&cr)
				resp.Body.Close()
				if derr != nil {
					errs <- derr
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("sample %d: status %d", id, resp.StatusCode)
					return
				}
				if cr.Class != want[id].Class || cr.Exit != want[id].Exit.String() {
					errs <- fmt.Errorf("sample %d: got class %d exit %s, engine says class %d exit %v",
						id, cr.Class, cr.Exit, want[id].Class, want[id].Exit)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestE2EUploadMatchesDatasetSample posts a sample's device views as a
// raw tensor body and checks the answer equals classifying the same
// sample by ID — the upload path stages identical inputs.
func TestE2EUploadMatchesDatasetSample(t *testing.T) {
	eng, ts := newE2EServer(t, Config{})
	model, test := e2eFixture(t)
	ctx := context.Background()

	const id = 3
	want, err := eng.Classify(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	views := test.AllDeviceBatches(model.Cfg.Devices, []int{id})
	viewVals := ddnn.ImageC * ddnn.ImageH * ddnn.ImageW
	raw := make([]byte, 0, len(views)*viewVals*4)
	var buf [4]byte
	for _, v := range views {
		for _, f := range v.Data() {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(f))
			raw = append(raw, buf[:]...)
		}
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/classify", "application/octet-stream", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	var cr classifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Class != want.Class || cr.Exit != want.Exit.String() {
		t.Errorf("upload answered class %d exit %s, sample %d classifies as class %d exit %v",
			cr.Class, cr.Exit, id, want.Class, want.Exit)
	}
}

// TestE2EBatchMatchesEngine checks the batch endpoint against per-sample
// engine answers.
func TestE2EBatchMatchesEngine(t *testing.T) {
	eng, ts := newE2EServer(t, Config{})
	ctx := context.Background()

	ids := []uint64{0, 1, 2, 3, 4}
	want := make([]ddnn.Result, len(ids))
	for i, id := range ids {
		res, err := eng.Classify(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	body, _ := json.Marshal(map[string]any{"sample_ids": ids})
	resp, err := ts.Client().Post(ts.URL+"/v1/classify/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(ids) {
		t.Fatalf("batch answered %d results, want %d", len(br.Results), len(ids))
	}
	for i, cr := range br.Results {
		if cr.SampleID != ids[i] || cr.Class != want[i].Class || cr.Exit != want[i].Exit.String() {
			t.Errorf("batch[%d] = {id %d class %d exit %s}, engine says {id %d class %d exit %v}",
				i, cr.SampleID, cr.Class, cr.Exit, ids[i], want[i].Class, want[i].Exit)
		}
	}
}

// TestE2EShedLevelsStillAnswer forces each shed level through the engine
// and checks every level yields a valid classification — degraded, never
// failed.
func TestE2EShedLevelsStillAnswer(t *testing.T) {
	// MaxInFlight 1 puts every request in the top (device-only) band, so
	// exercise levels directly against the engine instead.
	eng, _ := newE2EServer(t, Config{})
	ctx := context.Background()
	for _, level := range []ddnn.ShedLevel{ddnn.ShedNone, ddnn.ShedPreferEdge, ddnn.ShedLocalOnly} {
		res, err := eng.ClassifyTenantShed(ctx, 0, "", level)
		if err != nil {
			t.Fatalf("level %v: %v", level, err)
		}
		if res.Class < 0 {
			t.Errorf("level %v: class %d", level, res.Class)
		}
		if level == ddnn.ShedLocalOnly && res.Exit != ddnn.ExitLocal {
			t.Errorf("device-only shed exited at %v", res.Exit)
		}
	}
}
