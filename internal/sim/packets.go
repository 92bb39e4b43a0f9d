package sim

import (
	"fmt"
	"math"

	"hybridcap/internal/geom"
	"hybridcap/internal/interference"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scheduler"
	"hybridcap/internal/spatial"
	"hybridcap/internal/traffic"
)

// PacketConfig parameterizes a packet-level two-hop relay run (the
// Grossglauser-Tse transport, Section I's mobility baseline).
type PacketConfig struct {
	// Lambda is the per-node injection rate (packets per slot,
	// Bernoulli).
	Lambda float64
	// Slots is the number of measured slots.
	Slots int
	// Warmup slots run before measurement starts.
	Warmup int
	// RT is the transmission range; zero selects DefaultSimCT/sqrt(n).
	RT float64
	// Delta is the guard factor; negative selects the default.
	Delta float64
	// Seed drives packet injection.
	Seed uint64
}

// PacketReport summarizes a packet-level run.
type PacketReport struct {
	// Injected and Delivered are totals over the measured window.
	Injected, Delivered int
	// DeliveredRate is delivered packets per node per slot.
	DeliveredRate float64
	// MeanDelay is the mean slots from injection to delivery.
	MeanDelay float64
	// BacklogPerNode is the mean queue length at the end of the run; a
	// backlog growing with Lambda past the capacity marks instability.
	BacklogPerNode float64
}

type packet struct {
	dst  int32
	born int32
}

// RunTwoHop simulates two-hop relaying under policy S*: on a scheduled
// contact, a node first delivers any packet destined to its partner
// (its own or relayed), otherwise hands over its oldest source packet
// for the partner to relay. It mutates the network's mobility state.
func RunTwoHop(nw *network.Network, tr *traffic.Pattern, cfg PacketConfig) (*PacketReport, error) {
	if nw == nil || tr == nil {
		return nil, fmt.Errorf("sim: nil network or traffic")
	}
	if tr.Len() != nw.NumMS() {
		return nil, fmt.Errorf("sim: traffic over %d nodes, network has %d", tr.Len(), nw.NumMS())
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("sim: need positive slot count")
	}
	if cfg.Lambda < 0 || cfg.Lambda > 1 {
		return nil, fmt.Errorf("sim: lambda %g outside [0, 1]", cfg.Lambda)
	}
	n := nw.NumMS()
	rt := cfg.RT
	if rt <= 0 {
		rt = DefaultSimCT / math.Sqrt(float64(n))
	}
	model := interference.NewModel(rt, cfg.Delta)
	injRand := rng.New(cfg.Seed).Derive("inject").Rand()

	// Per-node queues: own source packets and relayed packets.
	srcQ := make([][]packet, n)
	relayQ := make([][]packet, n)
	rep := &PacketReport{}
	var delaySum float64

	pos := make([]geom.Point, 0, n)
	// The spatial index and pair list are slot-loop scratch: the grid
	// geometry depends only on the guard radius and node count, both
	// constant over the run, so rebuilding in place fills the same
	// buckets New would. Allocations inside the slot loop below show in
	// perfbench's allocs_per_op; the hotalloc analyzer
	// (internal/analysis/hotalloc.go) flags new ones at lint time.
	var ix *spatial.Index
	var pairs []interference.Transmission
	for slot := 0; slot < cfg.Warmup+cfg.Slots; slot++ {
		measuring := slot >= cfg.Warmup
		// Injection.
		for i := 0; i < n; i++ {
			if injRand.Float64() < cfg.Lambda {
				srcQ[i] = append(srcQ[i], packet{dst: int32(tr.DestOf[i]), born: int32(slot)})
				if measuring {
					rep.Injected++
				}
			}
		}
		// Mobility and scheduling.
		nw.Step()
		pos = nw.MSPositions(pos)
		if ix == nil {
			ix = spatial.New(pos, model.GuardRadius())
		} else {
			ix.Rebuild(pos)
		}
		pairs = scheduler.SStarPairsInto(model, ix, pairs)
		// Definition 10 splits the slot between the two directions: both
		// endpoints get to transmit one packet.
		for _, pr := range pairs {
			transferPacket(pr.From, pr.To, srcQ, relayQ, slot, measuring, rep, &delaySum)
			transferPacket(pr.To, pr.From, srcQ, relayQ, slot, measuring, rep, &delaySum)
		}
	}
	if rep.Delivered > 0 {
		rep.MeanDelay = delaySum / float64(rep.Delivered)
	}
	rep.DeliveredRate = float64(rep.Delivered) / float64(n) / float64(cfg.Slots)
	backlog := 0
	for i := 0; i < n; i++ {
		backlog += len(srcQ[i]) + len(relayQ[i])
	}
	rep.BacklogPerNode = float64(backlog) / float64(n)
	return rep, nil
}

// transferPacket moves one packet from node a to node b: preferring
// delivery (a packet destined to b), then relay handoff of a's own
// oldest source packet.
func transferPacket(a, b int, srcQ, relayQ [][]packet, slot int, measuring bool, rep *PacketReport, delaySum *float64) {
	var done bool
	if relayQ[a], done = deliverTo(relayQ[a], b, slot, measuring, rep, delaySum); done {
		return
	}
	if srcQ[a], done = deliverTo(srcQ[a], b, slot, measuring, rep, delaySum); done {
		return
	}
	// Relay handoff: give b the oldest source packet.
	if len(srcQ[a]) > 0 {
		relayQ[b] = append(relayQ[b], srcQ[a][0])
		srcQ[a] = srcQ[a][1:]
	}
}

// deliverTo removes and accounts the first packet in q destined to b,
// reporting whether one was delivered.
func deliverTo(q []packet, b, slot int, measuring bool, rep *PacketReport, delaySum *float64) ([]packet, bool) {
	for idx, p := range q {
		if int(p.dst) == b {
			if measuring {
				rep.Delivered++
				*delaySum += float64(slot - int(p.born))
			}
			return append(q[:idx], q[idx+1:]...), true
		}
	}
	return q, false
}

// LinkPersistence measures Theorem 8's phenomenon: take the
// nearest-neighbor links within range rt at slot 0 (condition i of the
// protocol model) and report the fraction still within range after the
// given number of slots. Under trivial mobility this stays near 1 —
// whether a transmission is successful becomes independent of time and
// the network behaves as static — while under strong mobility it decays
// quickly.
func LinkPersistence(nw *network.Network, rt float64, slots int) (float64, error) {
	if nw == nil {
		return 0, fmt.Errorf("sim: nil network")
	}
	if slots <= 0 {
		return 0, fmt.Errorf("sim: need positive slot count")
	}
	if rt <= 0 {
		return 0, fmt.Errorf("sim: need positive transmission range")
	}
	model := interference.NewModel(rt, -1)
	pos := nw.MSPositions(nil)
	pos = append(pos, nw.BSPos...)
	ix := spatial.New(pos, rt)
	initial := scheduler.NearestNeighborWants(model, ix)
	if len(initial) == 0 {
		return 0, fmt.Errorf("sim: no feasible links at slot 0 (rt=%g)", rt)
	}
	for s := 0; s < slots; s++ {
		nw.Step()
	}
	cur := nw.MSPositions(nil)
	cur = append(cur, nw.BSPos...)
	alive := 0
	for _, pr := range initial {
		if model.InRange(cur[pr.From], cur[pr.To]) {
			alive++
		}
	}
	return float64(alive) / float64(len(initial)), nil
}
