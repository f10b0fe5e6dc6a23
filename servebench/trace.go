package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ddnn/ddnn-go/internal/api"
	"github.com/ddnn/ddnn-go/internal/cluster"
	"github.com/ddnn/ddnn-go/internal/tensor"
	"github.com/ddnn/ddnn-go/internal/wire"
)

// Span names, one per layer boundary the benchmark can see from
// outside the program. A request's spans share its request id.
const (
	spanRequest  = "loadgen.request" // intended send → answer read
	spanHandler  = "api.handler"     // the front door's Handler()
	spanCall     = "cluster.call"    // one call into the engine
	spanLocal    = "cluster.stage.local"
	spanUpstream = "cluster.stage.upstream"
)

// span is one traced interval. Times are microseconds since the traced
// window started.
type span struct {
	Name    string  `json:"name"`
	ID      string  `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	Req     string  `json:"req,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// spanID names a request's span for a layer; a request has at most one
// span per layer.
func spanID(req, name string) string { return req + "/" + name }

// recorder keeps a traced window's spans and per-layer observations in
// memory; they are written out when the run ends.
type recorder struct {
	t0 time.Time

	mu         sync.Mutex
	spans      []span
	callMs     []float64 // one per engine call
	waitMs     []float64 // call time minus Result.Latency, one per sample
	localMs    []float64 // StageObserved(ExitLocal): one per session
	upstreamMs []float64 // StageObserved(edge or cloud)
	handlerMs  []float64
	non2xx     int
	shed       int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) addSpan(name, req, parent string, start, end time.Time) {
	s := span{Name: name, Req: req, Parent: parent, StartUs: us(start.Sub(r.t0)), EndUs: us(end.Sub(r.t0))}
	if req != "" {
		s.ID = spanID(req, name)
	} else {
		s.ID = fmt.Sprintf("%s#%d", name, len(r.spans))
	}
	r.spans = append(r.spans, s)
}

// request records a load-generator request: from its intended send
// time to the moment its answer was read.
func (r *recorder) request(req string, due, done time.Time) {
	r.mu.Lock()
	r.addSpan(spanRequest, req, "", due, done)
	r.mu.Unlock()
}

// call records one engine call made for request req by the layer named
// parent, and the collector wait of every result it returned.
func (r *recorder) call(req, parent string, start, end time.Time, results ...*cluster.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addSpan(spanCall, req, spanID(req, parent), start, end)
	d := end.Sub(start)
	r.callMs = append(r.callMs, ms(d))
	for _, res := range results {
		if res != nil {
			r.waitMs = append(r.waitMs, ms(d-res.Latency))
		}
	}
}

// handled records one front-door request.
func (r *recorder) handled(req string, start, end time.Time, status int, shedLevel string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addSpan(spanHandler, req, spanID(req, spanRequest), start, end)
	r.handlerMs = append(r.handlerMs, ms(end.Sub(start)))
	if status < 200 || status > 299 {
		r.non2xx++
	}
	if shedLevel != "" && shedLevel != cluster.ShedNone.String() {
		r.shed++
	}
}

// stage records one tier round trip reported by the gateway. The
// callback carries no request id, so stage spans have no parent.
func (r *recorder) stage(tier wire.ExitPoint, d time.Duration) {
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if tier == wire.ExitLocal {
		r.localMs = append(r.localMs, ms(d))
		r.addSpan(spanLocal, "", "", end.Add(-d), end)
		return
	}
	r.upstreamMs = append(r.upstreamMs, ms(d))
	r.addSpan(spanUpstream, "", "", end.Add(-d), end)
}

// selfTimes derives each layer's self time: a span's duration minus the
// time its child spans cover (children of one span do not overlap).
func selfTimes(spans []span) map[string][]float64 {
	childUs := make(map[string]float64)
	for _, s := range spans {
		if s.Parent != "" {
			childUs[s.Parent] += s.EndUs - s.StartUs
		}
	}
	self := make(map[string][]float64)
	for _, s := range spans {
		self[s.Name] = append(self[s.Name], (s.EndUs-s.StartUs-childUs[s.ID])/1000)
	}
	return self
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// tap sits between the benchmark and the engine. It is the front
// door's api.Classifier and tees the engine's Instrumentation callbacks
// to both the front door and, while a window is traced, the recorder.
type tap struct {
	eng   *cluster.Engine
	apiIn cluster.Instrumentation // the front door's callbacks (zero without one)
	rec   atomic.Pointer[recorder]
}

var _ api.Classifier = (*tap)(nil)

// reqKey carries the load generator's request id from the handler
// wrapper to the Classifier wrapper.
type reqKey struct{}

// trace starts (rec non-nil) or stops recording. It must not race
// SetInstrumentation, which the front door calls only while built.
func (t *tap) trace(rec *recorder) {
	t.rec.Store(rec)
	if rec == nil {
		t.eng.Gateway().SetInstrumentation(t.apiIn)
		return
	}
	next := t.apiIn
	t.eng.Gateway().SetInstrumentation(cluster.Instrumentation{
		ExitObserved: next.ExitObserved,
		StageObserved: func(tier wire.ExitPoint, d time.Duration) {
			if next.StageObserved != nil {
				next.StageObserved(tier, d)
			}
			rec.stage(tier, d)
		},
	})
}

// handler wraps the front door's Handler, timing it while tracing.
func (t *tap) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := t.rec.Load()
		if rec == nil {
			next.ServeHTTP(w, r)
			return
		}
		req := r.Header.Get("X-Request-Id")
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqKey{}, req)))
		rec.handled(req, start, time.Now(), sw.status, w.Header().Get("X-Ddnn-Shed-Level"))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ClassifyTenantShed implements api.Classifier.
func (t *tap) ClassifyTenantShed(ctx context.Context, sampleID uint64, tenant string, level cluster.ShedLevel) (cluster.Result, error) {
	var res *cluster.Result
	var err error
	if rec := t.rec.Load(); rec != nil {
		start := time.Now()
		res, err = t.eng.ClassifyTenantShed(ctx, sampleID, tenant, level)
		req, _ := ctx.Value(reqKey{}).(string)
		rec.call(req, spanHandler, start, time.Now(), res)
	} else {
		res, err = t.eng.ClassifyTenantShed(ctx, sampleID, tenant, level)
	}
	if err != nil {
		return cluster.Result{}, err
	}
	return *res, nil
}

// ClassifyBatchTenantShed implements api.Classifier.
func (t *tap) ClassifyBatchTenantShed(ctx context.Context, sampleIDs []uint64, tenant string, level cluster.ShedLevel) ([]cluster.Result, error) {
	res, err := t.eng.ClassifyBatchTenantShed(ctx, sampleIDs, tenant, level)
	if err != nil {
		return nil, err
	}
	out := make([]cluster.Result, len(res))
	for i, r := range res {
		out[i] = *r
	}
	return out, nil
}

// ClassifyUpload implements api.Classifier.
func (t *tap) ClassifyUpload(ctx context.Context, views []*tensor.Tensor, level cluster.ShedLevel) (cluster.Result, error) {
	res, err := t.eng.ClassifyUpload(ctx, views, level)
	if err != nil {
		return cluster.Result{}, err
	}
	return *res, nil
}

// UpstreamReplicas implements api.Classifier.
func (t *tap) UpstreamReplicas() (total, healthy int) {
	pool := t.eng.Gateway().Upstream()
	return pool.Size(), pool.Healthy()
}

// Topology implements api.Classifier.
func (t *tap) Topology() cluster.TopologyConfig { return t.eng.Topology() }

// SetInstrumentation implements api.Classifier: it keeps the front
// door's callbacks so tracing can tee them.
func (t *tap) SetInstrumentation(in cluster.Instrumentation) {
	t.apiIn = in
	t.trace(t.rec.Load())
}
