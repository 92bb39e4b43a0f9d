package backbone

import (
	"math"
	"testing"
)

func TestNewErrors(t *testing.T) {
	if _, err := New(-1, 1); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(4, math.NaN()); err == nil {
		t.Error("NaN capacity accepted")
	}
}

func TestAddLoadAndMax(t *testing.T) {
	b, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddLoad(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLoad(1, 0, 0.25); err != nil { // symmetric edge
		t.Fatal(err)
	}
	if err := b.AddLoad(2, 3, 1.5); err != nil {
		t.Fatal(err)
	}
	if got := b.MaxLoad(); got != 1.5 {
		t.Errorf("MaxLoad = %v", got)
	}
	if got := b.Utilization(); got != 0.75 {
		t.Errorf("Utilization = %v", got)
	}
	if got := b.TotalLoad(); got != 2.25 {
		t.Errorf("TotalLoad = %v", got)
	}
}

func TestAddLoadErrors(t *testing.T) {
	b, _ := New(3, 1)
	if err := b.AddLoad(0, 0, 1); err == nil {
		t.Error("self edge accepted")
	}
	if err := b.AddLoad(0, 5, 1); err == nil {
		t.Error("out of range accepted")
	}
	if err := b.AddLoad(0, 1, -1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestEdgePackingDistinct(t *testing.T) {
	// Every unordered pair must map to a distinct slot: load one edge,
	// verify only that edge is loaded.
	k := 7
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b, _ := New(k, 1)
			if err := b.AddLoad(i, j, 1); err != nil {
				t.Fatal(err)
			}
			if b.TotalLoad() != 1 || b.MaxLoad() != 1 {
				t.Fatalf("edge (%d,%d): total %v max %v", i, j, b.TotalLoad(), b.MaxLoad())
			}
		}
	}
}

// loadGroupLink spreads rate uniformly over the usable edges between
// two groups with AddLoad, the per-edge form of a phase II group flow.
func loadGroupLink(t *testing.T, b *Backbone, groupA, groupB []int, rate float64) {
	t.Helper()
	edges, _ := b.GroupLink(groupA, groupB)
	for _, i := range groupA {
		for _, j := range groupB {
			if b.EdgeUsable(i, j) {
				if err := b.AddLoad(i, j, rate/float64(edges)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestGroupLinkConserved(t *testing.T) {
	b, _ := New(10, 1)
	a := []int{0, 1, 2}
	g := []int{5, 6}
	edges, minCap := b.GroupLink(a, g)
	if edges != 6 || minCap != 1 {
		t.Fatalf("GroupLink = (%d, %v), want (6, 1)", edges, minCap)
	}
	loadGroupLink(t, b, a, g, 3.0)
	if got := b.TotalLoad(); math.Abs(got-3.0) > 1e-12 {
		t.Errorf("TotalLoad = %v, want 3", got)
	}
	// 6 edges, each carries 0.5.
	if got := b.MaxLoad(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MaxLoad = %v, want 0.5", got)
	}
	// The summary's weakest edge over its per-edge share is the
	// per-edge SustainableScale.
	if got, want := b.SustainableScale(), minCap/(3.0/float64(edges)); got != want {
		t.Errorf("SustainableScale = %v, want %v", got, want)
	}
}

func TestGroupLinkSkipsSelfEdges(t *testing.T) {
	// Groups sharing BS 1 are not disjoint; the fault-state scan never
	// counts the self edge (1,1).
	b, _ := New(5, 1)
	if err := b.ApplyFaults(nil, []bool{true, true, true, true, true}); err != nil {
		t.Fatal(err)
	}
	a, g := []int{0, 1}, []int{1, 2}
	// Pairs: (0,1), (0,2), (1,2) -> 3 edges.
	if edges, _ := b.GroupLink(a, g); edges != 3 {
		t.Errorf("edges = %d, want 3", edges)
	}
	loadGroupLink(t, b, a, g, 3.0)
	if got := b.TotalLoad(); math.Abs(got-3.0) > 1e-12 {
		t.Errorf("TotalLoad = %v", got)
	}
}

func TestGroupLinkNoEdges(t *testing.T) {
	b, _ := New(5, 1)
	if edges, minCap := b.GroupLink(nil, []int{1}); edges != 0 || minCap != 0 {
		t.Errorf("empty group: GroupLink = (%d, %v), want (0, 0)", edges, minCap)
	}
	if err := b.ApplyFaults(nil, []bool{true, true, true, true, true}); err != nil {
		t.Fatal(err)
	}
	if edges, minCap := b.GroupLink([]int{2}, []int{2}); edges != 0 || minCap != 0 {
		t.Errorf("identical singleton groups: GroupLink = (%d, %v), want (0, 0)", edges, minCap)
	}
	if edges, _ := b.GroupLink(nil, []int{1}); edges != 0 {
		t.Errorf("empty group under faults: edges = %d, want 0", edges)
	}
}

func TestNewDefersLoadArray(t *testing.T) {
	b, _ := New(2000, 1)
	if b.load != nil {
		t.Fatal("New allocated the per-edge load array")
	}
	if edges, _ := b.GroupLink([]int{0, 1}, []int{2, 3, 4}); edges != 6 || b.load != nil {
		t.Errorf("GroupLink: edges = %d, load allocated = %v", edges, b.load != nil)
	}
	if got, want := b.LiveEdges(), 2000*1999/2; got != want {
		t.Errorf("LiveEdges = %d, want %d", got, want)
	}
	if !math.IsInf(b.SustainableScale(), 1) || b.MaxLoad() != 0 {
		t.Error("unloaded backbone reports load")
	}
}

func TestSustainableScale(t *testing.T) {
	b, _ := New(4, 2)
	if !math.IsInf(b.SustainableScale(), 1) {
		t.Error("unloaded backbone should sustain infinite scale")
	}
	_ = b.AddLoad(0, 1, 0.5)
	if got := b.SustainableScale(); got != 4 {
		t.Errorf("SustainableScale = %v, want 4", got)
	}
}

func TestReset(t *testing.T) {
	b, _ := New(4, 1)
	_ = b.AddLoad(0, 1, 1)
	b.Reset()
	if b.TotalLoad() != 0 {
		t.Error("Reset did not clear loads")
	}
}

func TestCutCapacity(t *testing.T) {
	b, _ := New(6, 0.5)
	cut, err := b.CutCapacity([]bool{true, true, true, false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if cut != 0.5*9 {
		t.Errorf("CutCapacity = %v, want 4.5", cut)
	}
	if _, err := b.CutCapacity([]bool{true}); err == nil {
		t.Error("wrong partition size accepted")
	}
}

func TestZeroBSBackbone(t *testing.T) {
	b, err := New(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.MaxLoad() != 0 || b.TotalLoad() != 0 {
		t.Error("empty backbone has load")
	}
}
