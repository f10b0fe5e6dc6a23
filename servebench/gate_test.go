package main

import (
	"context"
	"testing"
	"time"

	"github.com/ddnn/ddnn-go/internal/wire"
)

// tinySetup trains just enough of a model to serve; the gate compares
// the serving stack with the staged reference of whatever model it is.
var tinySetup = setupConfig{trainSamples: 8, testSamples: 32, epochs: 1}

func startTiny(t *testing.T, name string) *env {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	e, err := setup(w, 3, tinySetup)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	})
	e.ref = stagedReference(e.model, e.test)
	return e
}

func TestEveryWorkloadMatchesTheStagedReference(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := startTiny(t, w.name)
			g := &gate{}
			win := e.measure(context.Background(), g, nil, 1, 300*time.Millisecond)
			attempted, failed, correct := tally(g, win)
			if attempted == 0 || failed != 0 || !correct {
				t.Fatalf("attempted %d failed %d correct %v: %v", attempted, failed, correct, g.first)
			}
		})
	}
}

func TestPlantedWrongAnswerFailsTheRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := startTiny(t, w.name)
			// Plant a wrong reference class for every sample: every
			// answer the stack gives now disagrees with it.
			for i := range e.ref {
				e.ref[i].class = (e.ref[i].class + 1) % e.model.Cfg.Classes
			}
			g := &gate{}
			win := e.measure(context.Background(), g, nil, 1, 300*time.Millisecond)
			attempted, failed, correct := tally(g, win)
			if correct || failed != attempted || attempted == 0 {
				t.Fatalf("attempted %d failed %d correct %v, want every answer failed", attempted, failed, correct)
			}
		})
	}
}

func TestPlantedWrongExitFailsTheRun(t *testing.T) {
	e := startTiny(t, "sim-links")
	for i := range e.ref {
		e.ref[i].exit = wire.ExitEdge // a two-tier model never answers at the edge
	}
	g := &gate{}
	win := e.measure(context.Background(), g, nil, 2, 200*time.Millisecond)
	if _, failed, correct := tally(g, win); correct || failed == 0 {
		t.Fatalf("failed %d correct %v, want the run failed", failed, correct)
	}
}

func TestPlantedByteMismatchFailsTheRun(t *testing.T) {
	e := startTiny(t, "serve-http")
	g := &gate{}
	idle := e.tr.hops[hopDevice].bytes.Load()
	done := make(chan window)
	go func() { done <- e.measure(context.Background(), g, nil, 1, time.Second) }()
	// Once the window's traffic flows its start snapshot is taken: add
	// one byte to the device hop that the gateway never saw.
	for e.tr.hops[hopDevice].bytes.Load() == idle {
		select {
		case <-done:
			t.Fatal("the window ended without device-hop traffic")
		case <-time.After(time.Millisecond):
		}
	}
	e.tr.hops[hopDevice].bytes.Add(1)
	win := <-done
	if win.byteFailures != 1 {
		t.Fatalf("byte failures %d, want the planted byte caught", win.byteFailures)
	}
	if _, failed, correct := tally(g, win); correct || failed != 1 {
		t.Fatalf("failed %d correct %v, want only the mismatch to fail the run", failed, correct)
	}
}
