package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"hybridcap/internal/delay"
	"hybridcap/internal/engine"
	"hybridcap/internal/network"
	"hybridcap/internal/scaling"
	"hybridcap/internal/scenario"
	"hybridcap/internal/traffic"
)

func delayTestArgs() (sizes []int, base scaling.Params, schemes []string) {
	return []int{256, 512},
		scaling.Params{Alpha: 0.15, K: 0.8, Phi: 1, M: 1},
		[]string{"schemeB", "twoHop"}
}

// delayRun runs a delay scenario's grid over g: each cell scores lambda
// with lambda and its delay half with delayOf, which accounts schemes
// at the default quantiles.
func delayRun(o Options, g *sizeGrid, schemes []string, lambda evalFn[float64], delayOf evalFn[[]float64]) ([]gridPoint, error) {
	return runGrid(o, g, gridRun{
		eval:  scenarioCell(lambda, delayOf),
		width: delayWidth(schemes, delay.DefaultQuantiles),
	})
}

// Delay statistics must be byte-identical for every worker count: the
// engine delivers cells in grid order and the aggregation folds in that
// order, so scheduling cannot leak into the formatted rows.
func TestDelaySweepWorkerInvariance(t *testing.T) {
	sizes, base, schemes := delayTestArgs()
	g := testGrid(t, "workerinv", sizes, base, network.Uniform)
	var rows []string
	for _, workers := range []int{1, 3, 8} {
		o := Options{Seeds: 3, Workers: workers}
		pts, err := delayRun(o, g, schemes, scenarioEval(schemes), delayEval(schemes, delay.DefaultQuantiles, nil))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := formatDelayRows(schemes, delay.DefaultQuantiles, pts)
		if rows == nil {
			rows = got
			continue
		}
		if strings.Join(got, "\n") != strings.Join(rows, "\n") {
			t.Errorf("workers=%d drifted from workers=1:\n%s\nvs\n%s",
				workers, strings.Join(got, "\n"), strings.Join(rows, "\n"))
		}
	}
}

// A delay scenario builds each instance once: both halves of a cell
// score the same *network.Network, and there is one instance per cell.
func TestDelayScenarioBuildsEachInstanceOnce(t *testing.T) {
	sizes, base, schemes := delayTestArgs()
	g := testGrid(t, "buildonce", sizes, base, network.Uniform)
	var mu sync.Mutex
	lambdaSaw := map[uint64][]*network.Network{}
	delaySaw := map[uint64][]*network.Network{}
	record := func(saw map[uint64][]*network.Network, nw *network.Network) {
		mu.Lock()
		defer mu.Unlock()
		saw[nw.Cfg.Seed] = append(saw[nw.Cfg.Seed], nw)
	}
	lambda, delayOf := scenarioEval(schemes), delayEval(schemes, delay.DefaultQuantiles, nil)
	const seeds = 3
	_, err := delayRun(Options{Seeds: seeds, Workers: 3}, g, schemes,
		func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
			record(lambdaSaw, nw)
			return lambda(nw, tr)
		},
		func(nw *network.Network, tr *traffic.Pattern) ([]float64, error) {
			record(delaySaw, nw)
			return delayOf(nw, tr)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(lambdaSaw) != len(sizes)*seeds {
		t.Fatalf("%d instances for %d cells", len(lambdaSaw), len(sizes)*seeds)
	}
	for seed, nws := range lambdaSaw {
		d := delaySaw[seed]
		if len(nws) != 1 || len(d) != 1 || nws[0] != d[0] {
			t.Errorf("seed %d: lambda scored %d instance(s), delay %d; want one shared", seed, len(nws), len(d))
		}
	}

	// End to end, the run's manifest has one phase over the whole grid.
	sc, err := scenario.Load("../../examples/scenarios/d2d-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(context.Background(), sc, Options{Quick: true, Seeds: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	man := res.Manifest
	grid := len(man.Sizes) * man.Seeds
	if len(man.Phases) != 1 || man.Phases[0].Phase != "sweep "+sc.Name ||
		man.Phases[0].Cells != grid || man.Phases[0].OK != grid {
		t.Errorf("manifest phases %+v, want one sweep phase over %d cells", man.Phases, grid)
	}
}

// A cell has one outcome: a delay model or a lambda evaluator that
// errors or panics fails the cell, so the point's lambda and delay
// rows report the same surviving seeds. Failing on every seed aborts
// an unsharded run with the point's first failing seed.
func TestDelayPassFailures(t *testing.T) {
	sizes, base, schemes := delayTestArgs()
	g := testGrid(t, "delayfail", sizes, base, network.Grid)
	o := Options{Seeds: 3, Workers: 3}
	lambda, healthy := scenarioEval(schemes), delayEval(schemes, delay.DefaultQuantiles, nil)
	seedOf := func(nw *network.Network) int {
		for i, n := range sizes {
			if n != nw.Cfg.Params.N {
				continue
			}
			for s := 0; s < o.Seeds; s++ {
				if g.cellSeed(i, s) == nw.Cfg.Seed {
					return s
				}
			}
		}
		return -1
	}

	// Seed 0 of every point fails its lambda, seed 1 its delay model,
	// seed 2's delay model panics. The rule keys on the instance's own
	// seed, so it holds for any scheduling.
	partialLambda := func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
		if seedOf(nw) == 0 {
			return 0, errors.New("injected lambda failure")
		}
		return lambda(nw, tr)
	}
	partialDelay := func(nw *network.Network, tr *traffic.Pattern) ([]float64, error) {
		switch seedOf(nw) {
		case 1:
			return nil, errors.New("injected failure")
		case 2:
			panic("injected panic")
		}
		return healthy(nw, tr)
	}
	for _, tc := range []struct {
		name            string
		lambda          evalFn[float64]
		delayOf         evalFn[[]float64]
		wantOK, covered int
	}{
		{"delay", lambda, partialDelay, 1, 3},
		{"lambda", partialLambda, healthy, 2, 3},
	} {
		pts, err := delayRun(o, g, schemes, tc.lambda, tc.delayOf)
		if err != nil {
			t.Fatalf("%s: partial failures aborted the run: %v", tc.name, err)
		}
		if len(pts) != len(sizes) {
			t.Fatalf("%s: %d points, want %d", tc.name, len(pts), len(sizes))
		}
		for _, pt := range pts {
			if pt.OK != tc.wantOK || pt.Covered != tc.covered {
				t.Errorf("%s: n=%d coverage %d/%d, want %d/%d", tc.name, pt.N, pt.OK, pt.Covered, tc.wantOK, tc.covered)
			}
		}
		series := lambdaSeries(g.name, pts)
		for i := range series.X {
			if series.OK[i] != tc.wantOK {
				t.Errorf("%s: lambda at n=%g has %d seeds ok, want %d", tc.name, series.X[i], series.OK[i], tc.wantOK)
			}
		}
	}

	for name, eval := range map[string]evalFn[[]float64]{
		"error": func(*network.Network, *traffic.Pattern) ([]float64, error) {
			return nil, errors.New("always down")
		},
		"panic": func(*network.Network, *traffic.Pattern) ([]float64, error) {
			panic("always broken")
		},
	} {
		_, err := delayRun(o, g, schemes, lambda, eval)
		if err == nil {
			t.Fatalf("%s: a run with zero surviving seeds should error", name)
		}
		for _, want := range []string{"all 3 seeds failed", "seed 0", engine.PhaseEvaluate + ":"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q lacks %q", name, err, want)
			}
		}
		if strings.Contains(err.Error(), engine.PhaseConstruct) {
			t.Errorf("%s: evaluation failure tagged as construction: %v", name, err)
		}
	}
}
