package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/ddnn/ddnn-go/internal/api"
	"github.com/ddnn/ddnn-go/internal/branchy"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/core"
	"github.com/ddnn/ddnn-go/internal/dataset"
	"github.com/ddnn/ddnn-go/internal/transport"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Serving settings every workload shares: the paper's exit threshold
// and ddnn-serve's defaults.
const (
	threshold      = 0.8
	maxConcurrency = cluster.DefaultMaxConcurrency
	maxInFlight    = api.DefaultMaxInFlight
	benchToken     = "servebench-token"
)

// setupConfig sizes what one set-up builds.
type setupConfig struct {
	trainSamples int // fixed-seed training split: the model is the same for every seed
	testSamples  int // served split, generated from the workload seed
	epochs       int
}

// benchSetup is the set-up every benchmark run uses: the paper's
// training split and a short fixed-seed training like the serve smoke.
var benchSetup = setupConfig{trainSamples: 340, testSamples: 512, epochs: 3}

// answer is one sample's staged verdict.
type answer struct {
	exit  wire.ExitPoint
	class int
}

// env is one set-up: a trained model, the served split, the in-process
// cluster on a counting transport and, for HTTP workloads, the front
// door on a loopback listener.
type env struct {
	w     workload
	model *core.Model
	test  *dataset.Dataset
	tr    *countingTransport
	eng   *cluster.Engine
	tap   *tap
	ref   []answer

	httpSrv   *http.Server
	serveDone chan error
	client    *http.Client
	url       string
}

// setup trains the workload's model and starts its serving stack.
func setup(w workload, seed int64, sc setupConfig) (*env, error) {
	dc := dataset.DefaultConfig()
	dc.Train, dc.Test = sc.trainSamples, 1
	train, _, err := dataset.Generate(dc)
	if err != nil {
		return nil, err
	}
	mc := core.DefaultConfig()
	mc.UseEdge = w.edge
	m, err := core.NewModel(mc)
	if err != nil {
		return nil, err
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = sc.epochs
	if _, err := m.Train(train, tc); err != nil {
		return nil, err
	}
	dc.Seed, dc.Train, dc.Test = seed, 1, sc.testSamples
	_, test, err := dataset.Generate(dc)
	if err != nil {
		return nil, err
	}

	cfg := cluster.EngineConfig{
		Gateway:        cluster.DefaultGatewayConfig(),
		MaxConcurrency: maxConcurrency,
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}
	cfg.Gateway.Threshold, cfg.Gateway.EdgeThreshold = threshold, threshold
	if w.batch > 1 {
		cfg.Batch = cluster.BatchConfig{MaxBatch: w.batch, MaxLinger: cluster.DefaultMaxLinger}
	}
	if w.links {
		cfg.DeviceLink, cfg.CloudLink = transport.DeviceToGateway, transport.GatewayToCloud
	}
	e := &env{w: w, model: m, test: test, tr: newCountingTransport(w.edge)}
	e.eng, err = cluster.NewEngine(m, test, cfg, e.tr)
	if err != nil {
		return nil, err
	}
	e.tap = &tap{eng: e.eng}
	if w.viaHTTP {
		if err := e.startHTTP(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// startHTTP serves the front door as ddnn-serve ships it, minus the
// per-client rate limit (its 50/s default would refuse the load).
func (e *env) startHTTP() error {
	srv, err := api.NewServer(api.Config{
		Engine:      e.tap,
		Devices:     e.model.Cfg.Devices,
		Auth:        api.NewAuthenticator(map[string]string{"bench": benchToken}),
		MaxInFlight: maxInFlight,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.httpSrv = &http.Server{Handler: e.tap.handler(srv.Handler()), ReadHeaderTimeout: 5 * time.Second}
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.httpSrv.Serve(ln) }()
	e.url = "http://" + ln.Addr().String() + "/v1/classify"
	e.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     e.w.senders,
			MaxIdleConnsPerHost: e.w.senders,
		},
	}
	return nil
}

// close stops the front door and the cluster and waits for both.
func (e *env) close() error {
	var errs []error
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-e.serveDone; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		e.client.CloseIdleConnections()
	}
	if e.eng != nil {
		errs = append(errs, e.eng.Close())
	}
	return errors.Join(errs...)
}

// stagedReference replays core's staged inference: Evaluate's exit
// probabilities under the workload's thresholds give each sample's exit
// and class.
func stagedReference(m *core.Model, test *dataset.Dataset) []answer {
	r := m.Evaluate(test, nil, 32)
	pol := branchy.NewPolicy(threshold, 1)
	if r.EdgeProbs != nil {
		pol = branchy.NewPolicy(threshold, threshold, 1)
	}
	ref := make([]answer, len(r.Labels))
	for i := range ref {
		exits := [][]float32{r.LocalProbs[i]}
		points := []wire.ExitPoint{wire.ExitLocal}
		if r.EdgeProbs != nil {
			exits = append(exits, r.EdgeProbs[i])
			points = append(points, wire.ExitEdge)
		}
		exits = append(exits, r.CloudProbs[i])
		points = append(points, wire.ExitCloud)
		for x, probs := range exits {
			if pol.ShouldExit(x, probs) {
				ref[i] = answer{exit: points[x], class: argmax(probs)}
				break
			}
		}
	}
	return ref
}

func argmax(row []float32) int {
	best := 0
	for i := range row {
		if row[i] > row[best] {
			best = i
		}
	}
	return best
}

// gate is the run's correctness check: every answer against the staged
// reference, every HTTP status and shed level, and the device-hop byte
// count against the gateway's own.
type gate struct {
	mu       sync.Mutex
	failures int
	first    []string // the first few failure messages, for the log
}

func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.failures++
	if len(g.first) < 5 {
		g.first = append(g.first, fmt.Sprintf(format, args...))
	}
}

func (g *gate) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failures
}

// check compares one answer with the reference and returns whether it
// matched.
func (g *gate) check(ref []answer, sampleID uint64, exit wire.ExitPoint, class int) bool {
	want := ref[sampleID]
	if exit != want.exit || class != want.class {
		g.fail("sample %d: got %v class %d, staged reference %v class %d", sampleID, exit, class, want.exit, want.class)
		return false
	}
	return true
}

// checkDeviceBytes compares the device hop's byte count over a window
// with the gateway's WireBytesUp+WireBytesDown over the same window.
func (g *gate) checkDeviceBytes(counted, gateway int64) bool {
	if counted != gateway {
		g.fail("device hop: counted %d bytes, gateway reports %d", counted, gateway)
		return false
	}
	return true
}

// trace starts (rec non-nil) or stops recording spans, stage times and
// per-write times.
func (e *env) trace(rec *recorder) {
	e.tap.trace(rec)
	e.tr.timing.Store(rec != nil)
}

// gatewayWireBytes is the gateway's own device-link byte count.
func (e *env) gatewayWireBytes() int64 {
	gw := e.eng.Gateway()
	return gw.WireBytesUp() + gw.WireBytesDown()
}

// classifyResponse is the part of the front door's answer the gate reads.
type classifyResponse struct {
	Class     int    `json:"class"`
	Exit      string `json:"exit"`
	ShedLevel string `json:"shed_level"`
}

// doHTTP sends one POST /v1/classify and checks the answer.
func (e *env) doHTTP(ctx context.Context, g *gate, rec *recorder, a arrival) outcome {
	var out outcome
	req := strconv.Itoa(a.seq)
	body := fmt.Appendf(nil, `{"sample_id":%d}`, a.sampleID)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url, bytes.NewReader(body))
	if err != nil {
		g.fail("request %s: %v", req, err)
		return e.finish(out, a, rec, req)
	}
	hreq.Header.Set("Authorization", "Bearer "+benchToken)
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", req)
	resp, err := e.client.Do(hreq)
	if err != nil {
		g.fail("request %s: %v", req, err)
		return e.finish(out, a, rec, req)
	}
	var cr classifyResponse
	derr := json.NewDecoder(resp.Body).Decode(&cr)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	switch {
	case resp.StatusCode != http.StatusOK:
		g.fail("request %s: status %d", req, resp.StatusCode)
	case derr != nil:
		g.fail("request %s: decode: %v", req, derr)
	case cr.ShedLevel != cluster.ShedNone.String():
		g.fail("request %s: shed level %q", req, cr.ShedLevel)
	default:
		want := e.ref[a.sampleID]
		if cr.Exit != want.exit.String() || cr.Class != want.class {
			g.fail("sample %d: got %s class %d, staged reference %v class %d", a.sampleID, cr.Exit, cr.Class, want.exit, want.class)
			break
		}
		out.ok, out.exit = true, want.exit
	}
	return e.finish(out, a, rec, req)
}

// doClassify runs one library Engine.Classify session and checks it.
func (e *env) doClassify(ctx context.Context, g *gate, rec *recorder, a arrival) outcome {
	var out outcome
	req := strconv.Itoa(a.seq)
	start := time.Now()
	res, err := e.eng.Classify(ctx, a.sampleID)
	if rec != nil {
		rec.call(req, spanRequest, start, time.Now(), res)
	}
	if err != nil {
		g.fail("sample %d: %v", a.sampleID, err)
	} else if g.check(e.ref, a.sampleID, res.Exit, res.Class) {
		out.ok, out.exit = true, res.Exit
	}
	return e.finish(out, a, rec, req)
}

// finish stamps an outcome's latency from the intended send time.
func (e *env) finish(out outcome, a arrival, rec *recorder, req string) outcome {
	done := time.Now()
	out.latency = done.Sub(a.due)
	if rec != nil {
		rec.request(req, a.due, done)
	}
	return out
}

// doBatch classifies the whole served split, in the seeded order ids,
// with one Engine.ClassifyBatch call. Each sample's latency is its batch
// session's (Result.Latency): the samples of a micro-batch share it.
func (e *env) doBatch(ctx context.Context, g *gate, rec *recorder, call int, ids []uint64) []outcome {
	req := "b" + strconv.Itoa(call)
	start := time.Now()
	results, err := e.eng.ClassifyBatch(ctx, ids)
	end := time.Now()
	if rec != nil {
		rec.request(req, start, end)
		rec.call(req, spanRequest, start, end, results...)
	}
	if err != nil {
		g.fail("batch call %d: %v", call, err)
	}
	outs := make([]outcome, len(ids))
	for i, id := range ids {
		outs[i] = outcome{latency: end.Sub(start)}
		res := results[i]
		if res == nil {
			continue
		}
		outs[i].latency = res.Latency
		if g.check(e.ref, id, res.Exit, res.Class) {
			outs[i].ok, outs[i].exit = true, res.Exit
		}
	}
	return outs
}
