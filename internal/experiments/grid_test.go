package experiments

import (
	"errors"
	"strings"
	"testing"

	"hybridcap/internal/engine"
	"hybridcap/internal/network"
	"hybridcap/internal/scaling"
	"hybridcap/internal/traffic"
)

// A strict grid returns its values in grid order for every worker
// count, and point means are the seed-order sums divided by seeds.
func TestStrictGridOrder(t *testing.T) {
	cell := func(point, seed int) (float64, error) { return float64(10*point + seed), nil }
	for _, workers := range []int{1, 8} {
		vals, err := strictGrid(Options{Workers: workers}, "grid order", 3, 2, nil, cell)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range vals {
			if want := float64(10*(i/2) + i%2); v != want {
				t.Errorf("workers=%d: value %d = %v, want %v", workers, i, v, want)
			}
		}
		if got := pointMeans(vals, 2); got[0] != 0.5 || got[1] != 10.5 || got[2] != 20.5 {
			t.Errorf("workers=%d: point means %v, want [0.5 10.5 20.5]", workers, got)
		}
	}
}

// A strict grid fails with its first failure in grid order, tagged by
// the cell step: a panicking evaluator reads "evaluate: evaluation
// panicked: ..." (engine.Stream's own guard would leave it untagged),
// and a broken instance reads "construct instance: ...".
func TestStrictGridFailuresTagged(t *testing.T) {
	p := scaling.Params{N: 64, Alpha: 0.2, K: -1, M: 1}
	eval := func(point int) evalFn[float64] {
		return func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
			switch point {
			case 1:
				panic("boom")
			case 2:
				return 0, errors.New("later failure")
			}
			return 1, nil
		}
	}
	for _, workers := range []int{1, 8} {
		_, err := strictGrid(Options{Workers: workers}, "grid panics", 3, 1, nil, func(point, _ int) (float64, error) {
			return cellStep(network.Config{Params: p, Seed: 5}, nil, eval(point))
		})
		if err == nil || !strings.HasPrefix(err.Error(), "evaluate: evaluation panicked: boom") {
			t.Errorf("workers=%d: panicking cell surfaced as %v", workers, err)
		}
		if engine.Phase(err) != engine.PhaseEvaluate {
			t.Errorf("workers=%d: phase %q, want %q", workers, engine.Phase(err), engine.PhaseEvaluate)
		}
	}
	pBS := scaling.Params{N: 64, Alpha: 0.2, K: 0.5, Phi: 1, M: 1}
	_, err := strictGrid(Options{Workers: 2}, "grid broken", 2, 1, nil, func(point, _ int) (float64, error) {
		return cellStep(network.Config{Params: pBS, Seed: 5, BSPlacement: network.BSPlacement(99)}, nil, eval(0))
	})
	if engine.Phase(err) != engine.PhaseConstruct {
		t.Errorf("broken instance surfaced as %v, want a %q failure", err, engine.PhaseConstruct)
	}
}
