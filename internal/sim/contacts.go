// Package sim is the discrete-time slot simulator: it moves nodes by
// their mobility processes, schedules wireless transmissions under a
// protocol-model policy, and measures contact statistics and
// packet-level throughput/delay. It provides the empirical side of the
// capacity experiments: Lemma 3 (constant scheduling probability),
// Theorem 2 (optimal transmission range), Theorem 8 (triviality of
// mobility), and feasible-rate validation for the two-hop relay
// baseline.
package sim

import (
	"fmt"
	"math"

	"hybridcap/internal/geom"
	"hybridcap/internal/interference"
	"hybridcap/internal/network"
	"hybridcap/internal/scheduler"
	"hybridcap/internal/spatial"
)

// DefaultSimCT is the default constant in RT = cT/sqrt(n) for
// simulation runs. Orders are insensitive to cT, but the Theta(1)
// scheduling probability of Lemma 3 is roughly
// pi*cT^2 * exp(-2*pi*((1+Delta)*cT)^2); cT = 1 makes it astronomically
// small at finite n, cT = 0.3 makes it a few percent and observable.
const DefaultSimCT = 0.3

// checkModel rejects a transmission range or guard factor that is NaN
// or infinite. The defaults replace only a range <= 0 and a factor
// < 0, and a NaN fails both comparisons, so it would reach the
// scheduler as a range that admits nothing.
func checkModel(rt, delta float64) error {
	if math.IsNaN(rt) || math.IsInf(rt, 0) {
		return fmt.Errorf("sim: transmission range %g is not finite", rt)
	}
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return fmt.Errorf("sim: guard factor %g is not finite", delta)
	}
	return nil
}

// ContactConfig parameterizes a contact measurement run.
type ContactConfig struct {
	// RT is the transmission range; zero selects DefaultSimCT/sqrt(n).
	RT float64
	// Delta is the guard factor; negative selects the default.
	Delta float64
	// Slots is the number of simulated slots (after warmup).
	Slots int
	// Warmup slots are simulated but not measured.
	Warmup int
	// Greedy switches from policy S* to greedy maximal protocol-model
	// scheduling (the ablation of Theorem 2's strictness argument).
	Greedy bool
}

// ContactReport summarizes scheduled transmissions over a run.
type ContactReport struct {
	// PairsPerSlot is the mean number of concurrently scheduled pairs.
	PairsPerSlot float64
	// ScheduledFrac is the mean fraction of nodes in a scheduled pair
	// per slot — the empirical version of Lemma 3's constant p.
	ScheduledFrac float64
	// PerNodePairRate is PairsPerSlot normalized by the node count: the
	// one-hop transport opportunities per node per slot.
	PerNodePairRate float64
	// MSBSPairs is the mean number of scheduled pairs involving a BS.
	MSBSPairs float64
}

// MeasureContacts runs the mobility and scheduling loop and reports
// contact statistics. It mutates the network's mobility state.
func MeasureContacts(nw *network.Network, cfg ContactConfig) (*ContactReport, error) {
	loop := slotLoop{nw: nw, slots: cfg.Slots, warmup: cfg.Warmup}
	if err := loop.check(cfg.RT, cfg.Delta); err != nil {
		return nil, err
	}
	rt := cfg.RT
	if rt <= 0 {
		rt = DefaultSimCT / math.Sqrt(float64(nw.NumMS()))
	}
	model := interference.NewModel(rt, cfg.Delta)

	total := nw.NumMS() + nw.NumBS()
	all := make([]geom.Point, 0, total)
	rep := &ContactReport{}
	// Slot-loop scratch, as in RunTwoHop: one index rebuilt in place
	// over the MS positions followed by the BSs, and one pair buffer.
	var ix *spatial.Index
	var pairs []interference.Transmission
	err := loop.run(nil, func(pos []geom.Point) {
		if !loop.measuring {
			return
		}
		all = append(append(all[:0], pos...), nw.BSPos...)
		if ix == nil {
			ix = spatial.New(all, model.GuardRadius())
		} else {
			ix.Rebuild(all)
		}
		if cfg.Greedy {
			pairs = scheduler.GreedyPairs(model, all, scheduler.NearestNeighborWants(model, ix))
		} else {
			pairs = scheduler.SStarPairsInto(model, ix, pairs)
		}
		rep.PairsPerSlot += float64(len(pairs))
		for _, p := range pairs {
			if p.From >= nw.NumMS() || p.To >= nw.NumMS() {
				rep.MSBSPairs++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	slots := float64(cfg.Slots)
	rep.PairsPerSlot /= slots
	rep.MSBSPairs /= slots
	rep.ScheduledFrac = 2 * rep.PairsPerSlot / float64(total)
	rep.PerNodePairRate = rep.PairsPerSlot / float64(nw.NumMS())
	return rep, nil
}
