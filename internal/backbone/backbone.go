// Package backbone models the wired infrastructure of Section II.B: all
// k base stations are connected pairwise with bandwidth c(n) and wired
// transmissions cause no wireless interference. The package answers
// two kinds of question. GroupLink summarises the usable edges between
// two disjoint BS groups (their count and the weakest surviving
// capacity), from which scheme B's phase II derives the largest rate
// its evenly spread group flows sustain — the feasibility condition
// used in the proofs of Theorems 5 and 7. AddLoad tracks explicit
// per-edge loads (scheme C's direct and relayed wired hops) and
// SustainableScale reports the largest rate before some edge overloads.
//
// A backbone may additionally carry a fault plan: failed edges (or
// edges incident to a dead BS) have zero capacity and reject load, and
// surviving edges may be derated. Two groups that lose their last
// usable edge have no wired route (GroupLink reports zero edges).
package backbone

import (
	"errors"
	"fmt"
	"math"

	"hybridcap/internal/faults"
)

// ErrNoRoute is reported when load is put on a wired edge the fault
// plan took down: routing must steer such traffic around the dead
// infrastructure (or degrade it to wireless transport) instead.
var ErrNoRoute = errors.New("backbone: no usable wired route")

// Backbone is a complete wired graph over k BSs with uniform edge
// capacity C, accumulating symmetric per-edge loads. Fault plans turn
// it into a partial graph with per-edge capacity factors.
type Backbone struct {
	k int
	c float64
	// load is upper-triangular packed, edge (i,j) with i<j; nil until
	// the first AddLoad, so a backbone that only answers GroupLink
	// queries never holds the k(k-1)/2 array.
	load []float64
	// factor holds per-edge capacity multipliers (0 = edge down); nil
	// means every edge is healthy at factor 1.
	factor []float64
}

// New builds a backbone over k BSs with per-edge capacity c.
func New(k int, c float64) (*Backbone, error) {
	if k < 0 {
		return nil, fmt.Errorf("backbone: negative k %d", k)
	}
	if c <= 0 || math.IsNaN(c) {
		return nil, fmt.Errorf("backbone: edge capacity must be positive, got %g", c)
	}
	return &Backbone{k: k, c: c}, nil
}

// numEdges returns the number of edges of the complete graph.
func (b *Backbone) numEdges() int { return b.k * (b.k - 1) / 2 }

// K returns the number of base stations.
func (b *Backbone) K() int { return b.k }

// EdgeCapacity returns the healthy per-edge capacity c(n).
func (b *Backbone) EdgeCapacity() float64 { return b.c }

// ApplyFaults installs a fault plan: an edge incident to a dead BS
// (alive[i] == false) is down, and every other edge gets the plan's
// capacity factor. Either argument may be nil (no plan = factor 1 for
// edges between alive BSs; nil alive = every BS alive). Accumulated
// loads are preserved; apply faults before adding load.
func (b *Backbone) ApplyFaults(plan *faults.Plan, alive []bool) error {
	if alive != nil && len(alive) != b.k {
		return fmt.Errorf("backbone: alive mask size %d, want %d", len(alive), b.k)
	}
	if plan == nil && alive == nil {
		b.factor = nil
		return nil
	}
	b.factor = make([]float64, b.numEdges())
	for i := 0; i < b.k; i++ {
		for j := i + 1; j < b.k; j++ {
			if alive != nil && (!alive[i] || !alive[j]) {
				continue // factor stays 0
			}
			if plan != nil {
				b.factor[b.idx(i, j)] = plan.EdgeFactor(i, j)
			} else {
				b.factor[b.idx(i, j)] = 1
			}
		}
	}
	return nil
}

func (b *Backbone) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Packed index of (i, j), i < j, in row-major upper triangle.
	return i*(2*b.k-i-1)/2 + (j - i - 1)
}

func (b *Backbone) factorAt(e int) float64 {
	if b.factor == nil {
		return 1
	}
	return b.factor[e]
}

// EdgeUsable reports whether the edge (i, j) exists and survived the
// fault plan.
func (b *Backbone) EdgeUsable(i, j int) bool {
	if i == j || i < 0 || j < 0 || i >= b.k || j >= b.k {
		return false
	}
	return b.factorAt(b.idx(i, j)) > 0
}

// EdgeCapacityOf returns the surviving capacity of edge (i, j):
// c(n) times its fault factor.
func (b *Backbone) EdgeCapacityOf(i, j int) float64 {
	if i == j || i < 0 || j < 0 || i >= b.k || j >= b.k {
		return 0
	}
	return b.c * b.factorAt(b.idx(i, j))
}

// LiveEdges returns the number of edges with positive capacity.
func (b *Backbone) LiveEdges() int {
	if b.factor == nil {
		return b.numEdges()
	}
	live := 0
	for _, f := range b.factor {
		if f > 0 {
			live++
		}
	}
	return live
}

// AddLoad adds rate to the undirected edge (i, j). Loading a failed
// edge is an error: routing must steer around dead infrastructure.
func (b *Backbone) AddLoad(i, j int, rate float64) error {
	if i == j {
		return fmt.Errorf("backbone: self edge %d", i)
	}
	if i < 0 || j < 0 || i >= b.k || j >= b.k {
		return fmt.Errorf("backbone: edge (%d,%d) out of range k=%d", i, j, b.k)
	}
	if rate < 0 {
		return fmt.Errorf("backbone: negative rate %g", rate)
	}
	e := b.idx(i, j)
	if b.factorAt(e) <= 0 {
		return fmt.Errorf("backbone: edge (%d,%d) is down: %w", i, j, ErrNoRoute)
	}
	if b.load == nil {
		b.load = make([]float64, b.numEdges())
	}
	b.load[e] += rate
	return nil
}

// GroupLink summarises the wired link between two disjoint BS groups,
// over which scheme B's phase II spreads squarelet traffic: the number
// of usable edges between them and the smallest surviving capacity
// among those edges (c times the lowest fault factor; 0 when no edge is
// usable). A flow spread uniformly over the group pair puts the same
// load on each of these edges, so the weakest one bounds it. Without a
// fault state all |A|*|B| edges are usable at capacity c and the answer
// is O(1) — which is why the groups must be disjoint; under faults the
// pair matrix is scanned once, skipping failed and self edges.
func (b *Backbone) GroupLink(groupA, groupB []int) (edges int, minCap float64) {
	if b.factor == nil {
		edges = len(groupA) * len(groupB)
		if edges == 0 {
			return 0, 0
		}
		return edges, b.c
	}
	minF := math.Inf(1)
	for _, i := range groupA {
		for _, j := range groupB {
			if !b.EdgeUsable(i, j) {
				continue
			}
			edges++
			if f := b.factor[b.idx(i, j)]; f < minF {
				minF = f
			}
		}
	}
	if edges == 0 {
		return 0, 0
	}
	return edges, b.c * minF
}

// MaxLoad returns the largest per-edge load.
func (b *Backbone) MaxLoad() float64 {
	max := 0.0
	for _, l := range b.load {
		if l > max {
			max = l
		}
	}
	return max
}

// Utilization returns the largest load/capacity ratio over surviving
// edges: above 1 means some edge is overloaded.
func (b *Backbone) Utilization() float64 {
	max := 0.0
	for e, l := range b.load {
		if l == 0 {
			continue
		}
		cap := b.c * b.factorAt(e)
		if cap <= 0 {
			return math.Inf(1)
		}
		if r := l / cap; r > max {
			max = r
		}
	}
	return max
}

// SustainableScale returns the largest factor by which all accumulated
// loads can be scaled while keeping every edge within its surviving
// capacity. If the loads were accumulated at unit per-node rate, this
// is exactly the per-node rate the backbone can sustain (infinite when
// no load).
func (b *Backbone) SustainableScale() float64 {
	scale := math.Inf(1)
	for e, l := range b.load {
		if l == 0 {
			continue
		}
		cap := b.c * b.factorAt(e)
		if cap <= 0 {
			return 0
		}
		if r := cap / l; r < scale {
			scale = r
		}
	}
	return scale
}

// Reset clears accumulated loads (fault factors are kept).
func (b *Backbone) Reset() {
	for i := range b.load {
		b.load[i] = 0
	}
}

// TotalLoad returns the sum of all edge loads (useful as a conservation
// check in tests).
func (b *Backbone) TotalLoad() float64 {
	sum := 0.0
	for _, l := range b.load {
		sum += l
	}
	return sum
}

// CutCapacity returns the total surviving wired capacity crossing a
// node partition — for the healthy complete graph c * |inside| *
// |outside|, the quantity that upper-bounds lambda in Lemma 7
// (mu_B ~ k^2 c for a balanced cut). Fault plans shrink it by the
// failed and derated crossing edges.
func (b *Backbone) CutCapacity(inside []bool) (float64, error) {
	if len(inside) != b.k {
		return 0, fmt.Errorf("backbone: partition size %d, want %d", len(inside), b.k)
	}
	if b.factor == nil {
		in := 0
		for _, v := range inside {
			if v {
				in++
			}
		}
		out := b.k - in
		return b.c * float64(in) * float64(out), nil
	}
	sum := 0.0
	for i := 0; i < b.k; i++ {
		for j := i + 1; j < b.k; j++ {
			if inside[i] != inside[j] {
				sum += b.c * b.factorAt(b.idx(i, j))
			}
		}
	}
	return sum, nil
}
