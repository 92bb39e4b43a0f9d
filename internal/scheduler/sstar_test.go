package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// refSStarPairs is S* as Definition 10 reads, node by node: each node
// i finds its unique candidate j within RT with one range query, and a
// pair i < j is admitted when sstarAdmissible passes. SStarPairsInto
// must return the same slice, element for element.
func refSStarPairs(m interference.Model, ix *spatial.Index) []interference.Transmission {
	var out []interference.Transmission
	for i := 0; i < ix.Len(); i++ {
		partner, count := -1, 0
		ix.ForEachWithin(ix.Point(i), m.RT, func(j int) bool {
			if j == i {
				return true
			}
			count++
			partner = j
			return count <= 1
		})
		if count != 1 || partner < i {
			continue
		}
		if sstarAdmissible(m, ix, i, partner) {
			out = append(out, interference.Transmission{From: i, To: partner})
		}
	}
	return out
}

// sstarAdmissible is the admission test of policy S* (Definition 10):
// nodes i and j may communicate iff d_ij < RT and every other node in
// the network, active or not, is farther than the guard radius
// (1+Delta)*RT from both i and j. ix indexes all n+k node positions.
func sstarAdmissible(m interference.Model, ix *spatial.Index, i, j int) bool {
	pi, pj := ix.Point(i), ix.Point(j)
	if geom.Dist2(pi, pj) >= m.RT*m.RT {
		return false
	}
	clear := true
	check := func(center geom.Point) {
		ix.ForEachWithin(center, m.GuardRadius(), func(id int) bool {
			if id != i && id != j {
				clear = false
				return false
			}
			return true
		})
	}
	check(pi)
	if clear {
		check(pj)
	}
	return clear
}

// setFeasible is the protocol model's feasibility oracle: it verifies
// that a set of simultaneous transmissions is conflict-free given node
// positions. Every receiver is in range of its transmitter, every other
// active transmitter is outside its guard zone, and no node appears in
// two transmissions.
func setFeasible(m interference.Model, txs []interference.Transmission, pos []geom.Point) error {
	busy := make(map[int]int, 2*len(txs))
	for idx, t := range txs {
		if t.From == t.To {
			return fmt.Errorf("transmission %d is a self-loop (%d)", idx, t.From)
		}
		for _, node := range []int{t.From, t.To} {
			if node < 0 || node >= len(pos) {
				return fmt.Errorf("transmission %d references node %d outside positions", idx, node)
			}
			if other, ok := busy[node]; ok {
				return fmt.Errorf("node %d in transmissions %d and %d", node, other, idx)
			}
			busy[node] = idx
		}
		if !m.InRange(pos[t.From], pos[t.To]) {
			return fmt.Errorf("transmission %d out of range (%v)", idx, geom.Dist(pos[t.From], pos[t.To]))
		}
	}
	guard2 := m.GuardRadius() * m.GuardRadius()
	for i, t := range txs {
		for j, u := range txs {
			if i != j && geom.Dist2(pos[u.From], pos[t.To]) < guard2 {
				return fmt.Errorf("transmitter of %d inside guard zone of receiver of %d", j, i)
			}
		}
	}
	return nil
}

func TestSetFeasibleOK(t *testing.T) {
	m := interference.NewModel(0.05, 1)
	pos := []geom.Point{
		{X: 0.1, Y: 0.1}, {X: 0.13, Y: 0.1}, // pair 0-1
		{X: 0.6, Y: 0.6}, {X: 0.63, Y: 0.6}, // pair 2-3, far away
	}
	txs := []interference.Transmission{{From: 0, To: 1}, {From: 2, To: 3}}
	if err := setFeasible(m, txs, pos); err != nil {
		t.Errorf("feasible set rejected: %v", err)
	}
}

func TestSetFeasibleOutOfRange(t *testing.T) {
	m := interference.NewModel(0.05, 1)
	pos := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.3, Y: 0.1}}
	if err := setFeasible(m, []interference.Transmission{{From: 0, To: 1}}, pos); err == nil {
		t.Error("out-of-range transmission accepted")
	}
}

func TestSetFeasibleGuardZoneViolation(t *testing.T) {
	m := interference.NewModel(0.05, 1) // guard radius 0.1
	pos := []geom.Point{
		{X: 0.1, Y: 0.1}, {X: 0.14, Y: 0.1},
		{X: 0.2, Y: 0.1}, {X: 0.24, Y: 0.1}, // transmitter 2 only 0.06 from receiver 1
	}
	txs := []interference.Transmission{{From: 0, To: 1}, {From: 2, To: 3}}
	if err := setFeasible(m, txs, pos); err == nil {
		t.Error("guard zone violation accepted")
	}
}

func TestSetFeasibleDuplicateNode(t *testing.T) {
	m := interference.NewModel(0.05, 1)
	pos := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.13, Y: 0.1}, {X: 0.16, Y: 0.1}}
	txs := []interference.Transmission{{From: 0, To: 1}, {From: 1, To: 2}}
	if err := setFeasible(m, txs, pos); err == nil {
		t.Error("node used twice accepted")
	}
}

func TestSetFeasibleSelfLoop(t *testing.T) {
	m := interference.NewModel(0.05, 1)
	pos := []geom.Point{{X: 0.1, Y: 0.1}}
	if err := setFeasible(m, []interference.Transmission{{From: 0, To: 0}}, pos); err == nil {
		t.Error("self-loop accepted")
	}
}

func TestSetFeasibleBadIndex(t *testing.T) {
	m := interference.NewModel(0.05, 1)
	pos := []geom.Point{{X: 0.1, Y: 0.1}}
	if err := setFeasible(m, []interference.Transmission{{From: 0, To: 5}}, pos); err == nil {
		t.Error("out-of-bounds node accepted")
	}
}

func TestSStarAdmissible(t *testing.T) {
	m := interference.NewModel(0.1, 1) // guard radius 0.2
	pos := []geom.Point{
		{X: 0.5, Y: 0.5},
		{X: 0.55, Y: 0.5}, // within RT of node 0
		{X: 0.9, Y: 0.9},  // far away
	}
	ix := spatial.New(pos, 0.05)
	if !sstarAdmissible(m, ix, 0, 1) {
		t.Error("isolated close pair should be admissible")
	}
	if sstarAdmissible(m, ix, 0, 2) {
		t.Error("distant pair should not be admissible")
	}
	want := []interference.Transmission{{From: 0, To: 1}}
	if got := SStarPairsInto(m, ix, nil); !slices.Equal(got, want) {
		t.Errorf("SStarPairsInto = %v, want %v", got, want)
	}
}

func TestSStarGuardZoneBlocked(t *testing.T) {
	m := interference.NewModel(0.1, 1)
	pos := []geom.Point{
		{X: 0.5, Y: 0.5},
		{X: 0.55, Y: 0.5},
		{X: 0.6, Y: 0.5}, // inside guard zone of node 1 (0.05 < 0.2)
	}
	ix := spatial.New(pos, 0.05)
	if sstarAdmissible(m, ix, 0, 1) {
		t.Error("pair with intruder in guard zone should be inadmissible")
	}
	if got := SStarPairsInto(m, ix, nil); len(got) != 0 {
		t.Errorf("SStarPairsInto = %v, want none", got)
	}
}

// Every pair the reference admits must form a protocol-feasible set,
// even when all admitted pairs transmit simultaneously (Definition 10
// is stricter than the protocol model).
func TestSStarImpliesProtocolFeasible(t *testing.T) {
	pos := randomPos(400, 1)
	m := interference.NewModel(0.015, 1)
	ix := spatial.New(pos, m.GuardRadius())
	txs := refSStarPairs(m, ix)
	if len(txs) == 0 {
		t.Fatal("expected some admitted pairs at this density")
	}
	if err := setFeasible(m, txs, pos); err != nil {
		t.Errorf("S*-admitted set violates protocol model: %v", err)
	}
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
	if err := setFeasible(m, pairs, pos); err != nil {
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
			if sstarAdmissible(m, ix, i, j) {
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
	if err := setFeasible(m, chosen, pos); err != nil {
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

// checkSStar compares SStarPairsInto with refSStarPairs element by
// element, twice to cover the reused scratch and pair buffer, and,
// for a model whose guard radius covers RT, checks the result against
// the feasibility oracle.
func checkSStar(t *testing.T, m interference.Model, ix *spatial.Index, pos []geom.Point) {
	t.Helper()
	want := refSStarPairs(m, ix)
	got := SStarPairsInto(m, ix, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("RT %v Delta %v n %d: SStarPairsInto = %v, reference %v", m.RT, m.Delta, len(pos), got, want)
	}
	if again := SStarPairsInto(m, ix, got); !slices.Equal(again, want) {
		t.Fatalf("RT %v Delta %v n %d: second call = %v, reference %v", m.RT, m.Delta, len(pos), again, want)
	}
	if m.Delta >= 0 {
		if err := setFeasible(m, got, pos); err != nil {
			t.Fatalf("RT %v Delta %v n %d: %v", m.RT, m.Delta, len(pos), err)
		}
	}
}

// FuzzSStarMatchesReference checks SStarPairsInto against the per-node
// reference over n in 1..512, RT in [0.2, 20]/sqrt(n) (E2's sweep),
// Delta in [0, 2] and index cell sides from a fraction to several
// times the guard radius, which at large RT leaves grids narrower than
// the sweep's stencil. Mode 1 puts the points on the index grid's cell
// edges, mode 2 repeats points, and mode 3 puts them on a 1/4096
// lattice with RT and the guard radius lattice multiples, every other
// point exactly RT or exactly the guard radius from its predecessor.
// A rebuild over fresh points of another count then checks the reused
// scratch.
func FuzzSStarMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(255), uint8(0), 0.3, 1.0, 0.0)
	f.Add(int64(2), uint16(100), uint8(1), 2.0, 0.5, 1.3)
	f.Add(int64(3), uint16(300), uint8(2), 1.0, 1.0, 0.4)
	f.Add(int64(4), uint16(200), uint8(3), 0.8, 1.0, 0.0)
	f.Add(int64(5), uint16(3), uint8(0), 20.0, 2.0, 3.0)
	f.Add(int64(6), uint16(40), uint8(3), 5.0, 0.25, 2.5)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mode uint8, rtScale, delta, side float64) {
		for _, v := range []float64{rtScale, delta, side} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		size := 1 + int(n)%512
		rt := (0.2 + math.Mod(math.Abs(rtScale), 19.8)) / math.Sqrt(float64(size))
		delta = math.Mod(math.Abs(delta), 2)
		if mode%4 == 3 {
			// Lattice multiples: RT = k/1024 and Delta = j/4 make RT,
			// the guard radius and their squares exact.
			rt = math.Max(1, math.Round(rt*1024)) / 1024
			delta = math.Round(delta*4) / 4
		}
		m := interference.Model{RT: rt, Delta: delta}
		ixSide := m.GuardRadius()
		if s := math.Mod(math.Abs(side), 4); s >= 0.1 {
			ixSide *= s
		}
		pos := fuzzPoints(size, seed, mode, m, ixSide)
		ix := spatial.New(pos, ixSide)
		checkSStar(t, m, ix, pos)
		pos = fuzzPoints(1+(size*7+3)%512, seed+1, mode, m, ixSide)
		ix.Rebuild(pos)
		checkSStar(t, m, ix, pos)
	})
}

// fuzzPoints draws FuzzSStarMatchesReference's points for one mode.
func fuzzPoints(n int, seed int64, mode uint8, m interference.Model, side float64) []geom.Point {
	pos := randomPos(n, seed)
	rng := rand.New(rand.NewSource(seed))
	switch mode % 4 {
	case 1:
		cells := float64(geom.NewGrid(side).Cols)
		for i, p := range pos {
			pos[i] = geom.Point{X: math.Floor(p.X*cells) / cells, Y: math.Floor(p.Y*cells) / cells}
		}
	case 2:
		for i := 1; i < n; i += 2 {
			pos[i] = pos[rng.Intn(i)]
		}
	case 3:
		for i, p := range pos {
			pos[i] = geom.Point{X: math.Floor(p.X*4096) / 4096, Y: math.Floor(p.Y*4096) / 4096}
		}
		for i := 1; i < n; i += 2 {
			d := m.RT
			if rng.Intn(2) == 1 {
				d = m.GuardRadius()
			}
			p := pos[i-1]
			if rng.Intn(2) == 1 {
				pos[i] = geom.Point{X: math.Mod(p.X+d, 1), Y: p.Y}
			} else {
				pos[i] = geom.Point{X: p.X, Y: math.Mod(p.Y+d, 1)}
			}
		}
	}
	return pos
}

// Models NewModel never builds keep the reference rule too: a guard
// radius below RT or negative (Delta < 0 set by hand), RT zero or
// past the torus, and non-finite parameters.
func TestSStarOddModelsMatchReference(t *testing.T) {
	for _, m := range []interference.Model{
		{RT: 0.05, Delta: -0.5},
		{RT: 0.05, Delta: -1},
		{RT: 0.05, Delta: -3},
		{RT: -0.05, Delta: -3},
		{RT: 0, Delta: 1},
		{RT: 2, Delta: 0},
		{RT: math.Inf(1), Delta: 1},
		{RT: math.NaN(), Delta: 1},
		{RT: 0.05, Delta: math.NaN()},
		{RT: 0.05, Delta: math.Inf(1)},
	} {
		for _, n := range []int{1, 2, 3, 60} {
			pos := fuzzPoints(n, int64(n), 2, m, 0.05)
			checkSStar(t, m, spatial.New(pos, 0.05), pos)
		}
	}
}
