package scheduler

import (
	"math/rand"
	"testing"

	"hybridcap/internal/geom"
	"hybridcap/internal/interference"
	"hybridcap/internal/spatial"
)

func randomPos(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pos
}

func TestSStarPairsDisjointAndFeasible(t *testing.T) {
	pos := randomPos(1000, 1)
	m := interference.NewModel(0.02, 1)
	ix := spatial.New(pos, m.GuardRadius())
	pairs := SStarPairsInto(m, ix, nil)
	if len(pairs) == 0 {
		t.Fatal("expected some admitted pairs at this density")
	}
	seen := make(map[int]bool)
	for _, p := range pairs {
		if seen[p.From] || seen[p.To] {
			t.Fatal("S* pairs not disjoint")
		}
		seen[p.From], seen[p.To] = true, true
		if p.From >= p.To {
			t.Fatal("pairs should be reported with From < To")
		}
	}
	if err := m.SetFeasible(pairs, pos); err != nil {
		t.Errorf("S* pair set not protocol-feasible: %v", err)
	}
}

func TestSStarPairsMatchBruteForce(t *testing.T) {
	pos := randomPos(200, 2)
	m := interference.NewModel(0.04, 1)
	ix := spatial.New(pos, m.GuardRadius())
	got := SStarPairsInto(m, ix, nil)
	gotSet := make(map[[2]int]bool, len(got))
	for _, p := range got {
		gotSet[[2]int{p.From, p.To}] = true
	}
	count := 0
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			if m.SStarAdmissible(ix, i, j) {
				count++
				if !gotSet[[2]int{i, j}] {
					t.Fatalf("brute-force admissible pair (%d,%d) missing", i, j)
				}
			}
		}
	}
	if count != len(got) {
		t.Fatalf("got %d pairs, brute force %d", len(got), count)
	}
}

func TestSStarIsolatedPair(t *testing.T) {
	pos := []geom.Point{{X: 0.2, Y: 0.2}, {X: 0.22, Y: 0.2}, {X: 0.8, Y: 0.8}}
	m := interference.NewModel(0.05, 1)
	ix := spatial.New(pos, m.GuardRadius())
	pairs := SStarPairsInto(m, ix, nil)
	if len(pairs) != 1 || pairs[0].From != 0 || pairs[0].To != 1 {
		t.Fatalf("pairs = %v, want [(0,1)]", pairs)
	}
}

func TestSStarCrowdBlocks(t *testing.T) {
	// Three mutually-close nodes: no pair is admissible.
	pos := []geom.Point{{X: 0.2, Y: 0.2}, {X: 0.22, Y: 0.2}, {X: 0.24, Y: 0.2}}
	m := interference.NewModel(0.05, 1)
	ix := spatial.New(pos, m.GuardRadius())
	if pairs := SStarPairsInto(m, ix, nil); len(pairs) != 0 {
		t.Fatalf("crowded triple admitted %v", pairs)
	}
}

func TestGreedyPairsFeasible(t *testing.T) {
	pos := randomPos(800, 3)
	m := interference.NewModel(0.03, 1)
	ix := spatial.New(pos, m.GuardRadius())
	wants := NearestNeighborWants(m, ix)
	chosen := GreedyPairs(m, pos, wants)
	if len(chosen) == 0 {
		t.Fatal("greedy chose nothing")
	}
	if err := m.SetFeasible(chosen, pos); err != nil {
		t.Errorf("greedy set infeasible: %v", err)
	}
}

func TestGreedyAdmitsAtLeastAsManyAsSStar(t *testing.T) {
	// The strict S* guard (against all nodes) can only reduce the pair
	// count relative to greedy protocol-model matching on the same
	// candidates.
	pos := randomPos(1500, 4)
	m := interference.NewModel(0.02, 1)
	ix := spatial.New(pos, m.GuardRadius())
	star := SStarPairsInto(m, ix, nil)
	greedy := GreedyPairs(m, pos, NearestNeighborWants(m, ix))
	if len(greedy) < len(star) {
		t.Errorf("greedy %d < S* %d", len(greedy), len(star))
	}
}

func TestGreedySkipsGarbage(t *testing.T) {
	pos := randomPos(10, 5)
	m := interference.NewModel(0.5, 1)
	wants := []interference.Transmission{
		{From: 0, To: 0},  // self loop
		{From: -1, To: 2}, // bad index
		{From: 3, To: 99}, // bad index
	}
	if got := GreedyPairs(m, pos, wants); len(got) != 0 {
		t.Errorf("garbage wants admitted: %v", got)
	}
}

func TestGreedyRespectsPriority(t *testing.T) {
	// Two conflicting links: the first in the wants list must win.
	pos := []geom.Point{
		{X: 0.5, Y: 0.5}, {X: 0.53, Y: 0.5},
		{X: 0.56, Y: 0.5}, {X: 0.59, Y: 0.5},
	}
	m := interference.NewModel(0.05, 1)
	wants := []interference.Transmission{{From: 2, To: 3}, {From: 0, To: 1}}
	got := GreedyPairs(m, pos, wants)
	if len(got) != 1 || got[0].From != 2 {
		t.Fatalf("GreedyPairs = %v, want [(2,3)]", got)
	}
}

func TestNearestNeighborWants(t *testing.T) {
	pos := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.12, Y: 0.1}, {X: 0.9, Y: 0.9}}
	m := interference.NewModel(0.05, 1)
	ix := spatial.New(pos, 0.05)
	wants := NearestNeighborWants(m, ix)
	// Nodes 0 and 1 want each other; node 2 has no neighbor in range.
	if len(wants) != 2 {
		t.Fatalf("wants = %v", wants)
	}
}

// At the packet-sim size (n = 256, RT = 0.3/sqrt(n), default guard)
// scheduling into a reused pair buffer allocates nothing.
func TestSStarPairsIntoAllocationFree(t *testing.T) {
	pos := randomPos(256, 3)
	m := interference.NewModel(0.3/16, -1)
	ix := spatial.New(pos, m.GuardRadius())
	buf := SStarPairsInto(m, ix, nil)
	if len(buf) == 0 {
		t.Fatal("expected some admitted pairs")
	}
	allocs := testing.AllocsPerRun(50, func() {
		buf = SStarPairsInto(m, ix, buf)
	})
	if allocs != 0 {
		t.Errorf("SStarPairsInto allocates %v times per call, want 0", allocs)
	}
}
