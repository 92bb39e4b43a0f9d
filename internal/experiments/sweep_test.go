package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hybridcap/internal/engine"
	"hybridcap/internal/measure"
	"hybridcap/internal/network"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
	"hybridcap/internal/traffic"
)

// seriesEqual compares two series exactly: values, coverage counters
// and order. The parallel engine promises byte-identical results, so
// any tolerance here would hide a real drift.
func seriesEqual(t *testing.T, id string, a, b *measure.Series) {
	t.Helper()
	if a.Name != b.Name {
		t.Errorf("%s: series name %q != %q", id, a.Name, b.Name)
		return
	}
	if a.Len() != b.Len() {
		t.Errorf("%s: series %q length %d != %d", id, a.Name, a.Len(), b.Len())
		return
	}
	for i := 0; i < a.Len(); i++ {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] {
			t.Errorf("%s: series %q point %d: (%v, %v) != (%v, %v)",
				id, a.Name, i, a.X[i], a.Y[i], b.X[i], b.Y[i])
		}
		if a.OK[i] != b.OK[i] || a.Attempts[i] != b.Attempts[i] {
			t.Errorf("%s: series %q point %d coverage %d/%d != %d/%d",
				id, a.Name, i, a.OK[i], a.Attempts[i], b.OK[i], b.Attempts[i])
		}
	}
}

// TestSweepDeterminism asserts the parallel engine's core contract:
// every registered experiment produces identical series (values,
// OK/Attempts counters, order) and report rows with Workers=1 and
// Workers=8. Run it under -race to also certify the fan-out is sound.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serial, err := e.Run(Options{Quick: true, Seeds: 2, Workers: 1})
			if err != nil {
				t.Fatalf("%s serial: %v", e.ID, err)
			}
			parallel, err := e.Run(Options{Quick: true, Seeds: 2, Workers: 8})
			if err != nil {
				t.Fatalf("%s parallel: %v", e.ID, err)
			}
			if len(serial.Series) != len(parallel.Series) {
				t.Fatalf("%s: %d series serial vs %d parallel", e.ID, len(serial.Series), len(parallel.Series))
			}
			for i := range serial.Series {
				seriesEqual(t, e.ID, serial.Series[i], parallel.Series[i])
			}
			if len(serial.Rows) != len(parallel.Rows) {
				t.Fatalf("%s: %d rows serial vs %d parallel", e.ID, len(serial.Rows), len(parallel.Rows))
			}
			for i := range serial.Rows {
				if serial.Rows[i] != parallel.Rows[i] {
					t.Errorf("%s row %d:\n serial:   %s\n parallel: %s", e.ID, i, serial.Rows[i], parallel.Rows[i])
				}
			}
		})
	}
}

// testGrid resolves a size grid for the runner tests.
func testGrid(t *testing.T, name string, sizes []int, base scaling.Params, placement network.BSPlacement) *sizeGrid {
	t.Helper()
	g, err := newSizeGrid(name, sizes, base, placement, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sweepEval runs a lambda-only grid with the given evaluator over g and
// renders its series: the runner with its evaluator as the test seam.
func sweepEval(o Options, g *sizeGrid, eval evalFn[float64]) (*measure.Series, error) {
	pts, err := runGrid(o, g, gridRun{eval: scenarioCell(eval, nil)})
	if err != nil {
		return nil, err
	}
	return lambdaSeries(g.name, pts), nil
}

// Degraded sweeps must say which phase broke: instance construction
// and evaluation failures carry distinct tags in the wrapped error.
func TestSweepErrorPhases(t *testing.T) {
	// Every evaluation fails -> the abort error is tagged as an
	// evaluation failure of seed 0.
	p := scaling.Params{N: 64, Alpha: 0.2, K: -1, M: 1}
	allFail := func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
		return 0, errors.New("boom")
	}
	_, err := sweepEval(Options{Seeds: 2, Workers: 2}, testGrid(t, "dead", []int{64}, p, 0), allFail)
	if err == nil {
		t.Fatal("sweep with zero surviving seeds should error")
	}
	if !strings.Contains(err.Error(), engine.PhaseEvaluate) {
		t.Errorf("evaluation failure not tagged %q: %v", engine.PhaseEvaluate, err)
	}
	if strings.Contains(err.Error(), engine.PhaseConstruct) {
		t.Errorf("evaluation failure tagged as construction: %v", err)
	}
	if !strings.Contains(err.Error(), "seed 0") {
		t.Errorf("abort should report the first failing seed: %v", err)
	}

	// An unknown BS placement breaks network construction before any
	// evaluator runs -> tagged as a construction failure.
	pBS := scaling.Params{N: 64, Alpha: 0.2, K: 0.5, Phi: 1, M: 1}
	_, err = sweepEval(Options{Seeds: 2, Workers: 2}, testGrid(t, "broken", []int{64}, pBS, network.BSPlacement(99)),
		schemeEval(routing.SchemeA{}))
	if err == nil {
		t.Fatal("unknown placement should abort the sweep")
	}
	if !strings.Contains(err.Error(), engine.PhaseConstruct) {
		t.Errorf("construction failure not tagged %q: %v", engine.PhaseConstruct, err)
	}
	if strings.Contains(err.Error(), engine.PhaseEvaluate) {
		t.Errorf("construction failure tagged as evaluation: %v", err)
	}
}

// The engine caps its pool at the cell count and tolerates any worker
// configuration, including far more workers than cells.
func TestSweepWorkerEdgeCases(t *testing.T) {
	p := scaling.Params{N: 64, Alpha: 0.2, K: -1, M: 1}
	g := testGrid(t, "edge", []int{64, 128}, p, network.Grid)
	eval := schemeEval(routing.SchemeA{})
	var ref *measure.Series
	for _, workers := range []int{0, 1, 3, 64} {
		s, err := sweepEval(Options{Seeds: 2, Workers: workers}, g, eval)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = s
			continue
		}
		seriesEqual(t, "edge", ref, s)
	}
}

// A sweep whose evaluator fails or panics on some seeds still completes
// with partial per-point coverage; only a point losing every seed
// aborts.
func TestSweepLambdaPartialFailures(t *testing.T) {
	p := scaling.Params{N: 64, Alpha: 0.2, K: -1, M: 1}
	calls := 0
	eval := func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
		calls++
		switch calls % 3 {
		case 1:
			return 0, fmt.Errorf("injected failure")
		case 2:
			panic("injected panic")
		}
		return 1.5, nil
	}
	// The injected eval fails by call order, so pin the serial path:
	// with workers > 1 the call sequence (and the shared counter) would
	// be scheduling-dependent.
	o := Options{Seeds: 3, Workers: 1}
	series, err := sweepEval(o, testGrid(t, "partial", []int{64, 64}, p, 0), eval)
	if err != nil {
		t.Fatal(err)
	}
	if series.Len() != 2 {
		t.Fatalf("series has %d points, want 2", series.Len())
	}
	for i := 0; i < series.Len(); i++ {
		if series.OK[i] != 1 || series.Attempts[i] != 3 {
			t.Errorf("point %d coverage %d/%d, want 1/3", i, series.OK[i], series.Attempts[i])
		}
		if series.Y[i] != 1.5 {
			t.Errorf("point %d mean %v, want 1.5 (only surviving seed)", i, series.Y[i])
		}
	}

	allFail := func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
		return 0, fmt.Errorf("always down")
	}
	if _, err := sweepEval(o, testGrid(t, "dead", []int{64}, p, 0), allFail); err == nil {
		t.Error("sweep with zero surviving seeds should error")
	}
}
