package network

import (
	"errors"
	"math"
	"runtime/debug"
	"sync"
	"testing"

	"hybridcap/internal/faults"
	"hybridcap/internal/geom"
	"hybridcap/internal/mobility"
	"hybridcap/internal/scaling"
)

func testParams() scaling.Params {
	return scaling.Params{N: 512, Alpha: 0.25, K: 0.5, Phi: 0, M: 0.25, R: 0.2}
}

func TestNewBasic(t *testing.T) {
	nw, err := New(Config{Params: testParams(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumMS() != 512 {
		t.Errorf("NumMS = %d", nw.NumMS())
	}
	wantBS := testParams().NumBS()
	if nw.NumBS() != wantBS {
		t.Errorf("NumBS = %d, want %d", nw.NumBS(), wantBS)
	}
	if nw.F() != testParams().F() {
		t.Errorf("F = %v", nw.F())
	}
	if len(nw.HomePoints()) != 512 {
		t.Errorf("HomePoints len = %d", len(nw.HomePoints()))
	}
}

func TestNewRejectsInvalidParams(t *testing.T) {
	p := testParams()
	p.Alpha = 1.5
	_, err := New(Config{Params: p})
	if !errors.Is(err, scaling.ErrBadAlpha) {
		t.Errorf("err = %v, want ErrBadAlpha", err)
	}
}

func TestDeterministic(t *testing.T) {
	cfg := Config{Params: testParams(), Seed: 7}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.HomePoints() {
		if a.HomePoints()[i] != b.HomePoints()[i] {
			t.Fatal("home-points differ for identical config")
		}
	}
	for j := range a.BSPos {
		if a.BSPos[j] != b.BSPos[j] {
			t.Fatal("BS positions differ for identical config")
		}
	}
	a.Step()
	b.Step()
	pa := a.MSPositions(nil)
	pb := b.MSPositions(nil)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("positions differ after identical Step")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, _ := New(Config{Params: testParams(), Seed: 1})
	b, _ := New(Config{Params: testParams(), Seed: 2})
	same := 0
	for i := range a.HomePoints() {
		if a.HomePoints()[i] == b.HomePoints()[i] {
			same++
		}
	}
	if same == len(a.HomePoints()) {
		t.Error("different seeds produced identical placements")
	}
}

func TestStepMovesIIDNodes(t *testing.T) {
	nw, err := New(Config{Params: testParams(), Mobility: IID, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := nw.MSPositions(nil)
	beforeCopy := append([]geom.Point(nil), before...)
	nw.Step()
	after := nw.MSPositions(nil)
	moved := 0
	for i := range after {
		if after[i] != beforeCopy[i] {
			moved++
		}
	}
	if moved < nw.NumMS()/2 {
		t.Errorf("only %d/%d nodes moved", moved, nw.NumMS())
	}
}

func TestStaticNodesStayAtHome(t *testing.T) {
	nw, err := New(Config{Params: testParams(), Mobility: Static, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	nw.Step()
	pos := nw.MSPositions(nil)
	for i, p := range pos {
		if p != nw.HomePoints()[i] {
			t.Fatal("static node moved away from home")
		}
	}
}

func TestMobilityConfinement(t *testing.T) {
	p := testParams()
	nw, err := New(Config{Params: p, Mobility: IID, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	limit := nw.Sampler.Kernel().Support()/nw.F() + 1e-9
	for trial := 0; trial < 5; trial++ {
		nw.Step()
		pos := nw.MSPositions(nil)
		for i, pt := range pos {
			if d := geom.Dist(pt, nw.HomePoints()[i]); d > limit {
				t.Fatalf("node %d at distance %v from home, limit %v", i, d, limit)
			}
		}
	}
}

func TestWalkMobility(t *testing.T) {
	nw, err := New(Config{Params: testParams(), Mobility: Walk, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	nw.Step()
	// Walk must also stay within the kernel support.
	limit := nw.Sampler.Kernel().Support()/nw.F() + 1e-9
	for i, pt := range nw.MSPositions(nil) {
		if d := geom.Dist(pt, nw.HomePoints()[i]); d > limit {
			t.Fatalf("walk node %d escaped support: %v", i, d)
		}
	}
}

func TestBSPlacements(t *testing.T) {
	for _, placement := range []BSPlacement{Matched, Uniform, Grid} {
		nw, err := New(Config{Params: testParams(), BSPlacement: placement, Seed: 8})
		if err != nil {
			t.Fatalf("%v: %v", placement, err)
		}
		if nw.NumBS() != testParams().NumBS() {
			t.Errorf("%v: NumBS = %d", placement, nw.NumBS())
		}
		if len(nw.BSCluster) != nw.NumBS() {
			t.Errorf("%v: BSCluster len = %d", placement, len(nw.BSCluster))
		}
	}
}

func TestGridPlacementIsRegular(t *testing.T) {
	p := scaling.Params{N: 256, Alpha: 0.25, K: 0.5, M: 1, R: 0}
	nw, err := New(Config{Params: p, BSPlacement: Grid, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// All pairwise distances between distinct grid BSs should be at
	// least one grid cell apart (no duplicates).
	for i := 0; i < nw.NumBS(); i++ {
		for j := i + 1; j < nw.NumBS(); j++ {
			if geom.Dist(nw.BSPos[i], nw.BSPos[j]) < 1e-9 {
				t.Fatalf("grid BSs %d and %d coincide", i, j)
			}
		}
	}
}

func TestMatchedPlacementNearClusters(t *testing.T) {
	p := scaling.Params{N: 2048, Alpha: 0.25, K: 0.6, Phi: 0, M: 0.2, R: 0.2}
	nw, err := New(Config{Params: p, BSPlacement: Matched, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Every matched BS must be within cluster radius + kernel excursion
	// of some cluster center.
	limit := p.ClusterRadius() + nw.Sampler.Kernel().Support()/nw.F() + 1e-9
	for j, y := range nw.BSPos {
		best := math.Inf(1)
		for _, c := range nw.Placement.ClusterCenters {
			if d := geom.Dist(y, c); d < best {
				best = d
			}
		}
		if best > limit {
			t.Fatalf("matched BS %d at distance %v from nearest cluster, limit %v", j, best, limit)
		}
	}
}

func TestNoInfrastructure(t *testing.T) {
	p := testParams()
	p.K = -1 // BS-free
	nw, err := New(Config{Params: p, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumBS() != 0 {
		t.Errorf("BS-free network has %d BSs", nw.NumBS())
	}
}

func TestClusterMembers(t *testing.T) {
	nw, err := New(Config{Params: testParams(), Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	ms := nw.MSClusterMembers()
	total := 0
	for _, members := range ms {
		total += len(members)
	}
	if total != nw.NumMS() {
		t.Errorf("MS cluster members total %d, want %d", total, nw.NumMS())
	}
	bs := nw.BSClusterMembers()
	total = 0
	for _, members := range bs {
		total += len(members)
	}
	if total != nw.NumBS() {
		t.Errorf("BS cluster members total %d, want %d", total, nw.NumBS())
	}
}

func TestEtaLazy(t *testing.T) {
	nw, err := New(Config{Params: testParams(), Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := nw.Eta()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := nw.Eta()
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("Eta should be cached")
	}
	if e1.Eta(0) <= 0 {
		t.Error("eta(0) should be positive")
	}
}

// The eta table depends only on the kernel: instances with identical
// kernels share one table (however many goroutines ask concurrently),
// instances with distinct kernels get distinct tables, and applying a
// fault plan never mutates or re-aliases the shared entry.
func TestEtaSharedByKernelNotByInstance(t *testing.T) {
	p := testParams()
	nw1, err := New(Config{Params: p, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	nw2, err := New(Config{Params: p, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	nwCone, err := New(Config{Params: p, Seed: 13, Kernel: mobility.Cone{D: 1}})
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	nets := []*Network{nw1, nw2, nwCone}
	tables := make([]*mobility.EtaTable, callers*len(nets))
	var wg sync.WaitGroup
	wg.Add(len(tables))
	for i := range tables {
		i := i
		go func() {
			defer wg.Done()
			tab, err := nets[i%len(nets)].Eta()
			if err != nil {
				t.Error(err)
				return
			}
			tables[i] = tab
		}()
	}
	wg.Wait()
	for i := len(nets); i < len(tables); i++ {
		if tables[i] != tables[i%len(nets)] {
			t.Fatalf("caller %d saw a different table than caller %d", i, i%len(nets))
		}
	}
	if tables[0] != tables[1] {
		t.Error("same kernel, different seeds: tables should be shared")
	}
	if tables[0] == tables[2] {
		t.Error("distinct kernels must not share a table")
	}

	// Faults must not touch the shared table: snapshot values, apply an
	// outage to one instance, and verify both the pointer and the
	// values of every instance's table are unchanged.
	probes := []float64{0, 0.3, 1, 1.7}
	snapshot := make([]float64, len(probes))
	for i, x := range probes {
		snapshot[i] = tables[0].Eta(x)
	}
	plan, err := faults.New(faults.Config{Seed: 3, BSOutageFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	nw1.ApplyFaults(plan)
	e1, err := nw1.Eta()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := nw2.Eta()
	if err != nil {
		t.Fatal(err)
	}
	if e1 != tables[0] || e2 != tables[0] {
		t.Error("fault application re-aliased the shared eta table")
	}
	for i, x := range probes {
		if e1.Eta(x) != snapshot[i] {
			t.Errorf("eta(%g) changed after faults: %v != %v", x, e1.Eta(x), snapshot[i])
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if Matched.String() != "matched" || Uniform.String() != "uniform" || Grid.String() != "grid" {
		t.Error("BSPlacement strings wrong")
	}
	if IID.String() != "iid" || Walk.String() != "walk" || Static.String() != "static" {
		t.Error("MobilityKind strings wrong")
	}
	if BSPlacement(9).String() == "" || MobilityKind(9).String() == "" {
		t.Error("unknown enum should still print")
	}
}

func TestRemoveBS(t *testing.T) {
	nw, err := New(Config{Params: testParams(), Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	k := nw.NumBS()
	if err := nw.RemoveBS(0.5, 1); err != nil {
		t.Fatal(err)
	}
	if got := nw.NumBS(); got != k-k/2 && got != k/2 {
		t.Errorf("after 50%% outage: %d of %d BSs", got, k)
	}
	if len(nw.BSCluster) != nw.NumBS() {
		t.Errorf("BSCluster length %d != %d", len(nw.BSCluster), nw.NumBS())
	}
}

func TestRemoveBSKeepsAtLeastOne(t *testing.T) {
	nw, err := New(Config{Params: testParams(), Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.RemoveBS(0.999, 1); err != nil {
		t.Fatal(err)
	}
	if nw.NumBS() < 1 {
		t.Error("all BSs removed")
	}
}

func TestRemoveBSErrors(t *testing.T) {
	nw, err := New(Config{Params: testParams(), Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.RemoveBS(-0.1, 1); err == nil {
		t.Error("negative fraction accepted")
	}
	if err := nw.RemoveBS(1, 1); err == nil {
		t.Error("fraction 1 accepted")
	}
	if err := nw.RemoveBS(0, 1); err != nil {
		t.Errorf("zero fraction should be a no-op: %v", err)
	}
}

// The bucketed search must pick exactly the centre the plain scan picks,
// including its tie rule (lowest index among equally near centres).
func TestAssignBSClustersMatchesScan(t *testing.T) {
	points := []scaling.Params{
		{N: 2048, Alpha: 0.3, K: 0.8, Phi: 1, M: 1},             // strong-BS: m = n
		{N: 2048, Alpha: 0.45, K: 0.9, Phi: 1, M: 0.8, R: 0.42}, // clustered, m = 446
		{N: 2048, Alpha: 0.45, K: 0.7, Phi: 1, M: 0.4, R: 0.25}, // weak-BS: scanned
		{N: 1024, Alpha: 0.7, K: 0.6, Phi: 1, M: 0.2, R: 0.11},  // trivial-BS: scanned
		{N: 1024, Alpha: 0.45, K: 0.95, Phi: 1, M: 0.7, R: 0.4}, // k close to n
	}
	checked := 0
	for _, p := range points {
		for _, bs := range []BSPlacement{Grid, Matched, Uniform} {
			for seed := uint64(1); seed <= 3; seed++ {
				nw, err := New(Config{Params: p, Seed: seed, BSPlacement: bs})
				if err != nil {
					t.Fatal(err)
				}
				for j, y := range nw.BSPos {
					if want := nearestScan(nw.Placement.ClusterCenters, y); nw.BSCluster[j] != want {
						t.Fatalf("%v %v seed %d: BS %d -> cluster %d, scan picks %d", p, bs, seed, j, nw.BSCluster[j], want)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no BSs checked")
	}
}

// Lattice centres queried from lattice points produce exact distance
// ties, both inside a bucket and across bucket boundaries.
func TestCenterBucketsLatticeTies(t *testing.T) {
	for side := 9; side <= 16; side++ {
		for _, off := range []float64{0, 0.5} {
			var centers []geom.Point
			for i := 0; i < side; i++ {
				for j := 0; j < side; j++ {
					centers = append(centers, geom.Point{X: (float64(j) + off) / float64(side), Y: (float64(i) + off) / float64(side)})
				}
			}
			// A dirty caller buffer must be cleared before reuse.
			buf := make([]int32, 2*len(centers)+1)
			for i := range buf {
				buf[i] = -7
			}
			if off > 0 {
				buf = nil
			}
			cb := newCenterBuckets(centers, buf)
			for q := 2; q <= 37; q += 5 {
				for _, qoff := range []float64{0, 0.5} {
					for i := 0; i < q; i++ {
						for j := 0; j < q; j++ {
							y := geom.Point{X: (float64(j) + qoff) / float64(q), Y: (float64(i) + qoff) / float64(q)}
							if got, want := cb.nearest(y), nearestScan(centers, y); got != want {
								t.Fatalf("side %d off %v: query %v -> %d, scan picks %d", side, off, y, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// An i.i.d. network's processes share one allocation: building one
// costs the same number of allocations at every n, not one or more per
// MS. Collection is off while counting, since a collection can start
// runtime goroutines whose allocations the process-wide count would
// take for New's.
func TestNewAllocationsDoNotGrowWithN(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		cfg := Config{Params: scaling.Params{N: n, Alpha: 0.2, K: -1, M: 1}, Seed: 3}
		return testing.AllocsPerRun(5, func() {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(256), allocs(4096); large != small {
		t.Errorf("New makes %v allocations at n=4096 and %v at n=256", large, small)
	}
}
