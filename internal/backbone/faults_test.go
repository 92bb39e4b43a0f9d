package backbone

import (
	"errors"
	"math"
	"testing"

	"hybridcap/internal/faults"
)

func plan(t *testing.T, fc faults.Config) *faults.Plan {
	t.Helper()
	p, err := faults.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestApplyFaultsDeadBSKillsEdges(t *testing.T) {
	b, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	alive := []bool{true, false, true, true}
	if err := b.ApplyFaults(nil, alive); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		if j == 1 {
			continue
		}
		if b.EdgeUsable(1, j) {
			t.Errorf("edge (1,%d) usable despite dead endpoint", j)
		}
	}
	if !b.EdgeUsable(0, 2) || !b.EdgeUsable(2, 3) {
		t.Error("edges between live BSs must stay usable")
	}
	if got, want := b.LiveEdges(), 3; got != want {
		t.Errorf("LiveEdges = %d, want %d", got, want)
	}
}

func TestApplyFaultsAddLoadOnDeadEdge(t *testing.T) {
	b, _ := New(3, 1)
	if err := b.ApplyFaults(nil, []bool{true, false, true}); err != nil {
		t.Fatal(err)
	}
	err := b.AddLoad(0, 1, 1)
	if !errors.Is(err, ErrNoRoute) {
		t.Errorf("AddLoad on dead edge: err = %v, want ErrNoRoute", err)
	}
	if err := b.AddLoad(0, 2, 1); err != nil {
		t.Errorf("live edge rejected: %v", err)
	}
}

func TestApplyFaultsDerating(t *testing.T) {
	b, _ := New(2, 4)
	p := plan(t, faults.Config{Seed: 5, EdgeDerating: 0.25})
	if err := b.ApplyFaults(p, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := b.EdgeCapacityOf(0, 1), 1.0; got != want {
		t.Errorf("derated capacity = %v, want %v", got, want)
	}
	if err := b.AddLoad(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := b.SustainableScale(), 0.5; got != want {
		t.Errorf("SustainableScale = %v, want %v", got, want)
	}
	if got, want := b.Utilization(), 2.0; got != want {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
}

func TestGroupLinkUnderFaults(t *testing.T) {
	b, _ := New(4, 1)
	if err := b.ApplyFaults(nil, []bool{true, true, false, false}); err != nil {
		t.Fatal(err)
	}
	if edges, minCap := b.GroupLink([]int{0}, []int{1}); edges != 1 || minCap != 1 {
		t.Errorf("live pair: GroupLink = (%d, %v), want (1, 1)", edges, minCap)
	}
	if edges, _ := b.GroupLink([]int{0}, []int{2}); edges != 0 {
		t.Errorf("dead destination group: edges = %d, want 0", edges)
	}
	if edges, _ := b.GroupLink([]int{0, 1}, []int{2, 3}); edges != 0 {
		t.Errorf("dead groups: edges = %d, want 0", edges)
	}
	// Loading an edge into a dead group is rejected.
	if err := b.AddLoad(0, 2, 1); !errors.Is(err, ErrNoRoute) {
		t.Errorf("flow into dead groups: err = %v, want ErrNoRoute", err)
	}
}

func TestGroupLinkMinCapUnderDerating(t *testing.T) {
	b, _ := New(12, 2)
	p := plan(t, faults.Config{Seed: 3, EdgeDerating: 0.37, EdgeOutageFraction: 0.2})
	if err := b.ApplyFaults(p, nil); err != nil {
		t.Fatal(err)
	}
	// Fault plans derate uniformly; give one edge a lower factor so the
	// minimum is not simply the first usable edge's.
	b.factor[b.idx(4, 9)] = 0.05
	a, g := []int{0, 1, 2, 3, 4, 5}, []int{6, 7, 8, 9, 10, 11}
	edges, minCap := b.GroupLink(a, g)
	wantEdges, wantCap := 0, math.Inf(1)
	for _, i := range a {
		for _, j := range g {
			if b.EdgeUsable(i, j) {
				wantEdges++
				wantCap = math.Min(wantCap, b.EdgeCapacityOf(i, j))
			}
		}
	}
	if wantEdges == 0 || wantEdges == len(a)*len(g) {
		t.Fatalf("fault plan left %d of %d edges; want a strict subset", wantEdges, len(a)*len(g))
	}
	if wantCap != 2*0.05 || edges != wantEdges || minCap != wantCap {
		t.Errorf("GroupLink = (%d, %v), want (%d, %v)", edges, minCap, wantEdges, wantCap)
	}
}

func TestCutCapacityWithFaults(t *testing.T) {
	b, _ := New(4, 2)
	// Healthy: cut {0,1} vs {2,3} crosses 4 edges of capacity 2.
	got, err := b.CutCapacity([]bool{true, true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if want := 8.0; got != want {
		t.Fatalf("healthy CutCapacity = %v, want %v", got, want)
	}
	if err := b.ApplyFaults(nil, []bool{true, true, true, false}); err != nil {
		t.Fatal(err)
	}
	// BS 3 dead: only edges (0,2) and (1,2) survive the cut.
	got, err = b.CutCapacity([]bool{true, true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4.0; got != want {
		t.Errorf("faulted CutCapacity = %v, want %v", got, want)
	}
}

func TestEdgeOutageFractionKillsSomeEdges(t *testing.T) {
	b, _ := New(30, 1)
	p := plan(t, faults.Config{Seed: 7, EdgeOutageFraction: 0.5})
	if err := b.ApplyFaults(p, nil); err != nil {
		t.Fatal(err)
	}
	total := 30 * 29 / 2
	live := b.LiveEdges()
	if live == 0 || live == total {
		t.Errorf("LiveEdges = %d of %d, want a strict subset", live, total)
	}
	// Utilization of an unloaded faulted backbone is 0, not NaN.
	if got := b.Utilization(); got != 0 {
		t.Errorf("idle Utilization = %v", got)
	}
	if got := b.SustainableScale(); !math.IsInf(got, 1) {
		t.Errorf("idle SustainableScale = %v, want +Inf", got)
	}
}
