package routing

import (
	"fmt"
	"math"
	"math/bits"

	"hybridcap/internal/delay"
	"hybridcap/internal/geom"
	"hybridcap/internal/interference"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/network"
	"hybridcap/internal/scaling"
	"hybridcap/internal/scheduler"
	"hybridcap/internal/spatial"
	"hybridcap/internal/traffic"
)

// DelayModel is the delay-side counterpart of Scheme: an analytic
// per-pair delay decomposition under the same link-capacity model
// (Corollary 1) the throughput evaluators use. Each model streams one
// delay.Breakdown per routable source-destination pair, in tr's pair
// order, so collectors aggregate deterministically.
//
// The models follow the paper's Table-I delay reasoning: under S* the
// expected wait for a specific contact is the reciprocal of its link
// capacity mu, an aggregate of independent contact opportunities at
// rate R serves a head-of-line packet in 1/min(1, R) slots, and TDMA
// charges one frame per hop. Infrastructure transit is distance
// independent; ad hoc transit is not.
type DelayModel interface {
	// Name returns the registry name of the scheme the model describes.
	Name() string
	// EvaluateDelay streams one Breakdown per routable pair and returns
	// how many pairs the scheme could not serve at all (those contribute
	// no sample). Errors are reserved for broken instances, not for
	// unroutable traffic.
	EvaluateDelay(nw *network.Network, tr *traffic.Pattern, observe func(delay.Breakdown)) (unroutable int, err error)
}

// DelayModelByName resolves the delay model of a registered scheme.
// The parameter point matters only for gridMultihop (cell side); assoc,
// if non-nil, lets the infrastructure models charge the analytic
// re-association penalty to destinations whose nearest BS a fault plan
// killed. Every Names() entry resolves.
func DelayModelByName(name string, p scaling.Params, assoc *delay.AssocConfig) (DelayModel, error) {
	switch name {
	case NameSchemeA:
		return delaySchemeA{}, nil
	case NameSchemeB:
		return delaySchemeB{groupBy: BySquarelet, assoc: assoc}, nil
	case NameSchemeBCluster:
		return delaySchemeB{groupBy: ByCluster, assoc: assoc}, nil
	case NameSchemeC:
		return delaySchemeC{assoc: assoc}, nil
	case NameGridMultihop:
		return delayGridMultihop{side: math.Sqrt(p.Gamma())}, nil
	case NameTwoHop:
		return delayTwoHop{}, nil
	case NameD2D:
		return delayD2D{}, nil
	default:
		return nil, fmt.Errorf("routing: unknown scheme %q (want one of %v)", name, Names())
	}
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// backboneTransit is the wired transit charge: one slot, stretched by
// the fault plan's edge derating when one is configured.
func backboneTransit(nw *network.Network) float64 {
	if plan := nw.Faults(); plan != nil {
		if der := plan.Config().EdgeDerating; der > 0 {
			return 1 / der
		}
	}
	return 1
}

// reassocPenalties returns the per-destination downlink stall of the
// association model under an outage: a destination whose nearest
// overall BS is dead pays the analytic re-association penalty (its
// packets target the old serving BS until detection, trigger and
// handover complete). Nil when no assoc model or no BS is down.
func reassocPenalties(nw *network.Network, assoc *delay.AssocConfig) []float64 {
	if assoc == nil || nw.Faults() == nil || nw.NumLiveBS() == nw.NumBS() {
		return nil
	}
	penalty := assoc.ReassocPenalty()
	if penalty <= 0 {
		return nil
	}
	homes := nw.HomePoints()
	out := make([]float64, len(homes))
	ix := spatial.New(nw.BSPos, 0)
	near := make([]int32, 0, 16)
	for i, h := range homes {
		var best int
		if best, near = nearestLeastID(ix, h, near); !nw.BSIsLive(best) {
			out[i] = penalty
		}
	}
	return out
}

// nearestLeastID returns the point of a non-empty index of least
// geom.Dist2 to q, the least id among ties, and buf, the grown query
// scratch. Nearest finds the least distance but breaks ties in scan
// order, so every point a hair past it competes again.
func nearestLeastID(ix *spatial.Index, q geom.Point, buf []int32) (int, []int32) {
	_, d := ix.Nearest(q, nil)
	buf = ix.AppendWithin(buf[:0], q, d*(1+1e-9))
	best, bestD := -1, math.Inf(1)
	for _, id := range buf {
		j := int(id)
		if d2 := geom.Dist2(q, ix.Point(j)); d2 < bestD || d2 == bestD && j < best {
			best, bestD = j, d2
		}
	}
	return best, buf
}

// delaySchemeA models scheme A: Theta(f) squarelet hops, each served by
// the aggregate contact rate between adjacent cells (|A||B| node pairs
// at rate mu(side)). Dense cells push the per-hop wait toward one slot;
// sparse ones expose the mobility wait.
type delaySchemeA struct{}

// Name implements DelayModel.
func (delaySchemeA) Name() string { return NameSchemeA }

// EvaluateDelay implements DelayModel.
func (delaySchemeA) EvaluateDelay(nw *network.Network, tr *traffic.Pattern, observe func(delay.Breakdown)) (int, error) {
	if err := validate(nw, tr); err != nil {
		return 0, err
	}
	a, err := linkcap.NewAnalytic(nw, 0)
	if err != nil {
		return 0, fmt.Errorf("routing: scheme A delay: %w", err)
	}
	d := nw.Sampler.Kernel().Support()
	side := DefaultCellFrac * d / nw.F()
	g := geom.NewGrid(side)
	homes := nw.HomePoints()
	members := cellMembersOf(g, homes)
	occupied, occSum := 0, 0
	for _, m := range members {
		if len(m) > 0 {
			occupied++
			occSum += len(m)
		}
	}
	if occupied == 0 {
		return 0, fmt.Errorf("routing: scheme A delay: no occupied cells")
	}
	occ := float64(occSum) / float64(occupied)
	rate := math.Min(1, occ*occ*a.MSMS(side))
	if rate <= 0 {
		return len(tr.DestOf), nil
	}
	hopWait := 1 / rate
	for src, dst := range tr.DestOf {
		c1, r1 := g.CellOf(homes[src])
		c2, r2 := g.CellOf(homes[dst])
		hops := float64(iabs(g.ColSteps(c1, c2)) + iabs(g.RowSteps(r1, r2)) + 1)
		observe(delay.Breakdown{
			Forwarding:   hops,
			MobilityWait: hops * (hopWait - 1),
		})
	}
	return 0, nil
}

// delayGridMultihop models static multihop: the row-then-column hop
// count of the throughput evaluator, one TDMA frame per hop. A pair
// whose path crosses an empty cell is unroutable, matching Evaluate.
type delayGridMultihop struct {
	side float64
}

// Name implements DelayModel.
func (delayGridMultihop) Name() string { return NameGridMultihop }

// EvaluateDelay implements DelayModel.
func (m delayGridMultihop) EvaluateDelay(nw *network.Network, tr *traffic.Pattern, observe func(delay.Breakdown)) (int, error) {
	if err := validate(nw, tr); err != nil {
		return 0, err
	}
	if m.side <= 0 || math.IsNaN(m.side) {
		return 0, fmt.Errorf("routing: grid multihop delay needs a positive cell side, got %g", m.side)
	}
	g := geom.NewGrid(m.side)
	homes := nw.HomePoints()
	members := cellMembersOf(g, homes)
	rt := math.Sqrt(5) * g.CellW()
	minSep := (2 + interference.DefaultDelta) * rt
	centers := make([]geom.Point, g.NumCells())
	for idx := range centers {
		centers[idx] = g.Center(g.ColRow(idx))
	}
	sched, err := scheduler.ColorCells(centers, minSep)
	if err != nil {
		return 0, fmt.Errorf("routing: %w", err)
	}
	frame := float64(sched.FrameLength())
	unroutable := 0
	for src, dst := range tr.DestOf {
		c1, r1 := g.CellOf(homes[src])
		c2, r2 := g.CellOf(homes[dst])
		hops, ok := 0, true
		rowColPath(g, c1, r1, c2, r2, func(from, to int) bool {
			if len(members[to]) == 0 {
				ok = false
				return false
			}
			hops++
			return true
		})
		if !ok {
			unroutable++
			continue
		}
		observe(delay.Breakdown{Forwarding: float64(hops) * frame})
	}
	return unroutable, nil
}

// delayTwoHop models the Grossglauser-Tse baseline: the source hands
// off to the first relay it meets (aggregate rate over its reach
// neighborhood), then the relay must meet the specific destination —
// the Theta(n)-class mobility wait that buys the scheme its Theta(1)
// throughput.
type delayTwoHop struct{}

// Name implements DelayModel.
func (delayTwoHop) Name() string { return NameTwoHop }

// EvaluateDelay implements DelayModel.
func (delayTwoHop) EvaluateDelay(nw *network.Network, tr *traffic.Pattern, observe func(delay.Breakdown)) (int, error) {
	if err := validate(nw, tr); err != nil {
		return 0, err
	}
	a, err := linkcap.NewAnalytic(nw, 0)
	if err != nil {
		return 0, fmt.Errorf("routing: two-hop delay: %w", err)
	}
	homes := nw.HomePoints()
	nb := newNeighborhoods(homes, a.Reach())
	n := nw.NumMS()
	rate := make([]float64, n)
	deg := make([]int, n)
	if nb.complete() {
		// Each unordered pair's term is evaluated once and added to both
		// ends: Dist2Unit is bitwise symmetric, and with x outer and
		// y > x inner in list order, every row receives its terms in
		// MSMSSum's order over the list, itself left out. acc holds
		// each list position's sum so far.
		acc := make([]float64, n)
		for x, i := range nb.all {
			hi, sum := homes[i], acc[x]
			for y := x + 1; y < n; y++ {
				v := a.MSMS(math.Sqrt(geom.Dist2Unit(hi, homes[nb.all[y]])))
				sum += v
				acc[y] += v
			}
			rate[i], deg[i] = sum, n-1
		}
	} else {
		for i, hi := range homes {
			nbrs, p := nb.of(i)
			rate[i], deg[i] = a.MSMSSum(hi, homes, nbrs, p), len(nbrs)-1
		}
	}
	unroutable := 0
	for src, dst := range tr.DestOf {
		if deg[src] == 0 || rate[dst] <= 0 {
			unroutable++
			continue
		}
		// Source -> first relay: any neighbor contact will do.
		w1 := 1 / math.Min(1, rate[src])
		// Relay -> destination: the mean contact wait of one specific
		// neighbor, deg/sum(mu) (the aggregate does not help — only the
		// relay holding the packet can deliver it).
		w2 := float64(deg[dst]) / rate[dst]
		if w2 < 1 {
			w2 = 1
		}
		observe(delay.Breakdown{
			Forwarding:   2,
			MobilityWait: (w1 - 1) + (w2 - 1),
		})
	}
	return unroutable, nil
}

// delayD2D models the direct-link baseline: a single contact wait
// 1/mu(d) that grows with the source-destination home distance — the
// distance-dependent delay the infrastructure modes eliminate.
type delayD2D struct{}

// Name implements DelayModel.
func (delayD2D) Name() string { return NameD2D }

// EvaluateDelay implements DelayModel.
func (delayD2D) EvaluateDelay(nw *network.Network, tr *traffic.Pattern, observe func(delay.Breakdown)) (int, error) {
	if err := validate(nw, tr); err != nil {
		return 0, err
	}
	a, err := linkcap.NewAnalytic(nw, 0)
	if err != nil {
		return 0, fmt.Errorf("routing: d2d delay: %w", err)
	}
	homes := nw.HomePoints()
	unroutable := 0
	for src, dst := range tr.DestOf {
		mu := a.MSMSBetween(homes[src], homes[dst])
		if mu <= 0 {
			unroutable++
			continue
		}
		observe(delay.Breakdown{
			Forwarding:   1,
			MobilityWait: 1/mu - 1,
		})
	}
	return unroutable, nil
}

// delaySchemeB models scheme B: the source uplinks at its aggregate
// infrastructure access rate (Lemma 9), rides the backbone for one
// (possibly derated) slot, and the destination drains its serving BS's
// downlink at the same aggregate rate — none of it depending on the
// source-destination distance. Under an association model and an
// outage, destinations homed on a dead BS additionally pay the
// re-association stall.
type delaySchemeB struct {
	groupBy GroupBy
	assoc   *delay.AssocConfig
}

// Name implements DelayModel.
func (m delaySchemeB) Name() string {
	if m.groupBy == ByCluster {
		return NameSchemeBCluster
	}
	return NameSchemeB
}

// EvaluateDelay implements DelayModel.
func (m delaySchemeB) EvaluateDelay(nw *network.Network, tr *traffic.Pattern, observe func(delay.Breakdown)) (int, error) {
	if err := validate(nw, tr); err != nil {
		return 0, err
	}
	if nw.NumBS() == 0 {
		return 0, fmt.Errorf("routing: scheme B delay needs base stations")
	}
	livePos, liveIDs := nw.LiveBSPositions()
	if len(liveIDs) == 0 {
		return 0, fmt.Errorf("routing: scheme B delay: all %d base stations are down", nw.NumBS())
	}
	a, err := linkcap.NewAnalytic(nw, 0)
	if err != nil {
		return 0, fmt.Errorf("routing: scheme B delay: %w", err)
	}
	rt := defaultAccessRT(nw, m.groupBy, a)
	homes := nw.HomePoints()
	// Per-node access wait: the reciprocal aggregate MS-BS capacity over
	// the live infrastructure, capped at the unit channel bandwidth. A
	// BS past the reach, plus a margin far above the rounding of the
	// distance and its scaling, lies where the kernel's density is
	// zero, so its term is exactly +0 and adds nothing: the sum runs
	// over the BSs within reach only, in ascending live id as over all.
	// The query's hits are marked in a bitset, whose walk yields them
	// in that order and leaves it clear.
	reach := a.BSReach() * (1 + 1e-9)
	ix := spatial.New(livePos, reach)
	near := make([]int32, 0, len(livePos))
	mark := make([]uint64, (len(livePos)+63)/64)
	wait := make([]float64, len(homes))
	for i, h := range homes {
		near = ix.AppendWithin(near[:0], h, reach)
		for _, j := range near {
			mark[j>>6] |= 1 << (j & 63)
		}
		sum := 0.0
		for w, word := range mark {
			for ; word != 0; word &= word - 1 {
				j := w<<6 | bits.TrailingZeros64(word)
				sum += a.MSBSAt(geom.Dist(h, livePos[j]), rt)
			}
			mark[w] = 0
		}
		if sum <= 0 {
			wait[i] = -1
			continue
		}
		wait[i] = 1 / math.Min(1, sum)
	}
	bb := backboneTransit(nw)
	penalties := reassocPenalties(nw, m.assoc)
	unroutable := 0
	for src, dst := range tr.DestOf {
		if wait[src] < 0 || wait[dst] < 0 {
			unroutable++
			continue
		}
		b := delay.Breakdown{Uplink: wait[src], Backbone: bb, Downlink: wait[dst]}
		if penalties != nil {
			b.Downlink += penalties[dst]
		}
		observe(b)
	}
	return unroutable, nil
}

// delaySchemeC models the trivial-mobility hexagonal scheme: one TDMA
// uplink frame and one downlink frame (each stretched by the factor 2
// of the per-cell bandwidth split) around a single backbone slot —
// fully distance independent.
type delaySchemeC struct {
	assoc *delay.AssocConfig
}

// Name implements DelayModel.
func (delaySchemeC) Name() string { return NameSchemeC }

// EvaluateDelay implements DelayModel.
func (m delaySchemeC) EvaluateDelay(nw *network.Network, tr *traffic.Pattern, observe func(delay.Breakdown)) (int, error) {
	if err := validate(nw, tr); err != nil {
		return 0, err
	}
	k := nw.NumBS()
	if k == 0 {
		return 0, fmt.Errorf("routing: scheme C delay needs base stations")
	}
	if nw.NumLiveBS() == 0 {
		return 0, fmt.Errorf("routing: scheme C delay: all %d base stations are down", k)
	}
	hex := geom.NewHexGridCells(k)
	centers := make([]geom.Point, hex.NumCells())
	for idx := range centers {
		centers[idx] = hex.Center(hex.ColRow(idx))
	}
	minSep := (4 + interference.DefaultDelta) * hex.Side()
	sched, err := scheduler.ColorCells(centers, minSep)
	if err != nil {
		return 0, fmt.Errorf("routing: %w", err)
	}
	frame := 2 * float64(sched.FrameLength())
	bb := backboneTransit(nw)
	penalties := reassocPenalties(nw, m.assoc)
	for _, dst := range tr.DestOf {
		b := delay.Breakdown{Uplink: frame, Backbone: bb, Downlink: frame}
		if penalties != nil {
			b.Downlink += penalties[dst]
		}
		observe(b)
	}
	return 0, nil
}
