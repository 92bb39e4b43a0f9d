package experiments

import (
	"errors"
	"strings"
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

// delayRun runs the delay pass with the given evaluator over g, on one
// block of the grid when shard is set.
func delayRun(o Options, g *sizeGrid, shard *scenario.ShardSpec, schemes int, eval evalFn[[]delay.Stats]) ([]delayPoint, error) {
	p := delayPass(g, schemes, eval)
	p.shard = shard
	return runGrid(o, g, p)
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
		pts, err := delayRun(o, g, nil, len(schemes), delayEval(schemes, nil, nil))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := formatDelayRows(schemes, []float64{0.5, 0.99}, pts)
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

// A 3-way sharded delay sweep merged in shard order must reproduce the
// unsharded sweep byte for byte: shard blocks are contiguous in grid
// order, and the aggregator keeps sums (not means), so merging is the
// same additions in the same order.
func TestDelaySweepShardMergeByteIdentical(t *testing.T) {
	sizes, base, schemes := delayTestArgs()
	g := testGrid(t, "shard-delay", sizes, base, network.Uniform)
	eval := delayEval(schemes, nil, nil)
	o := Options{Seeds: 3, Workers: 4}
	full, err := delayRun(o, g, nil, len(schemes), eval)
	if err != nil {
		t.Fatal(err)
	}

	merged := make([]delayPoint, len(sizes))
	for i, n := range sizes {
		merged[i] = delayPoint{N: n}
	}
	const shards = 3
	for s := 0; s < shards; s++ {
		sp := &scenario.ShardSpec{Index: s, Count: shards}
		part, err := delayRun(o, g, sp, len(schemes), eval)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		for _, pt := range part {
			for i := range merged {
				if merged[i].N != pt.N {
					continue
				}
				if merged[i].Value == nil {
					merged[i].Value = pt.Value
				} else {
					for j := range pt.Value {
						if err := merged[i].Value[j].Add(pt.Value[j]); err != nil {
							t.Fatal(err)
						}
					}
				}
				merged[i].OK += pt.OK
				merged[i].Covered += pt.Covered
			}
		}
	}

	want := strings.Join(formatDelayRows(schemes, []float64{0.5, 0.99}, full), "\n")
	got := strings.Join(formatDelayRows(schemes, []float64{0.5, 0.99}, merged), "\n")
	if got != want {
		t.Errorf("3-way shard merge drifted:\n%s\nvs\n%s", got, want)
	}
}

// A delay model that errors or panics is tagged as an evaluation
// failure. Failing on some seeds leaves the other seeds' statistics in
// the point; failing on every seed aborts an unsharded pass with the
// point's first failing seed.
func TestDelayPassFailures(t *testing.T) {
	sizes, base, schemes := delayTestArgs()
	g := testGrid(t, "delayfail", sizes, base, network.Grid)
	o := Options{Seeds: 3, Workers: 3}
	healthy := delayEval(schemes, nil, nil)

	// Seed 1 of every point errors and seed 2 panics. The rule keys on
	// the instance's own seed, so it holds for any scheduling.
	partial := func(nw *network.Network, tr *traffic.Pattern) ([]delay.Stats, error) {
		point := 0
		for i, n := range sizes {
			if n == nw.Cfg.Params.N {
				point = i
			}
		}
		switch nw.Cfg.Seed {
		case g.cellSeed(point, 1):
			return nil, errors.New("injected failure")
		case g.cellSeed(point, 2):
			panic("injected panic")
		}
		return healthy(nw, tr)
	}
	pts, err := delayRun(o, g, nil, len(schemes), partial)
	if err != nil {
		t.Fatalf("partial failures aborted the pass: %v", err)
	}
	if len(pts) != len(sizes) {
		t.Fatalf("%d points, want %d", len(pts), len(sizes))
	}
	for _, pt := range pts {
		if pt.OK != 1 || pt.Covered != 3 {
			t.Errorf("n=%d coverage %d/%d, want 1/3", pt.N, pt.OK, pt.Covered)
		}
	}
	rows := strings.Join(formatDelayRows(schemes, []float64{0.5, 0.99}, pts), "\n")
	if got := strings.Count(rows, "seeds-ok=1/3"); got != len(sizes)*len(schemes) {
		t.Errorf("%d rows report seeds-ok=1/3, want %d:\n%s", got, len(sizes)*len(schemes), rows)
	}

	for name, eval := range map[string]evalFn[[]delay.Stats]{
		"error": func(*network.Network, *traffic.Pattern) ([]delay.Stats, error) {
			return nil, errors.New("always down")
		},
		"panic": func(*network.Network, *traffic.Pattern) ([]delay.Stats, error) {
			panic("always broken")
		},
	} {
		_, err := delayRun(o, g, nil, len(schemes), eval)
		if err == nil {
			t.Fatalf("%s: a pass with zero surviving seeds should error", name)
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
