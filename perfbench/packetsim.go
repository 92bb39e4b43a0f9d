package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"hybridcap/internal/delay"
	"hybridcap/internal/faults"
	"hybridcap/internal/geom"
	"hybridcap/internal/interference"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
	"hybridcap/internal/scheduler"
	"hybridcap/internal/sim"
	"hybridcap/internal/spatial"
	"hybridcap/internal/traffic"
)

// simOps are the packet-sim operations run on every instance, in order.
// The last is the contact loop the benchmark drives itself.
var simOps = []string{"sim.twoHop", "sim.multihop", "sim.infra", "sim.infraAssoc", "contact"}

// packetSim is the slot-level simulation workload, sized like the E11
// quick run: each pass runs every simOps operation on each of a fixed
// set of seeded instances, rebuilt before the pass because simulations
// advance their network's mobility state.
type packetSim struct {
	n, slots  int
	lambda    float64
	instances []uint64
	// ref holds the first pass's rendered report per instance and op;
	// every later pass must reproduce it.
	ref [][]string
	// Output invariants summed over the traced passes.
	scheduled, slotsRun     int
	delivered, injected     int
	handovers, tracedPasses int
}

func newPacketSim(cfg config) *packetSim {
	ps := &packetSim{n: 256, slots: 3000, lambda: 0.002}
	count := 1
	if cfg.tiny {
		ps.n, ps.slots = 128, 600
	}
	src := rng.New(cfg.seed).Derive("packet-sim")
	for k := 0; k < count; k++ {
		ps.instances = append(ps.instances, src.DeriveN("instance", k).Uint64())
	}
	return ps
}

// Parameter points of E11: a mobile population without infrastructure,
// and the same population with grid-placed base stations.
func (s *packetSim) params() (adhoc, infra scaling.Params) {
	adhoc = scaling.Params{N: s.n, Alpha: 0.15, K: -1, M: 1}
	infra = adhoc
	infra.K, infra.Phi = 0.8, 1
	return adhoc, infra
}

// simInstance is one op's freshly built network and traffic.
type simInstance struct {
	nw *network.Network
	tr *traffic.Pattern
}

// build constructs every op's instance for one seed, outside the timed
// region. The association run adds a 30% BS outage from mid-run, as the
// shipped handover-churn scenario does.
func (s *packetSim) build(seed uint64) ([]simInstance, error) {
	adhoc, infra := s.params()
	outage, err := faults.New(faults.Config{Seed: seed, BSOutageFraction: 0.3, BSOutageStart: s.slots / 2})
	if err != nil {
		return nil, err
	}
	specs := []struct {
		p         scaling.Params
		placement network.BSPlacement
		plan      *faults.Plan
	}{
		{adhoc, network.Matched, nil},
		{adhoc, network.Matched, nil},
		{infra, network.Grid, nil},
		{infra, network.Grid, outage},
		{adhoc, network.Matched, nil},
	}
	out := make([]simInstance, len(specs))
	for i, sp := range specs {
		nw, tr, err := buildInstance(nil, span{}, sp.p, seed, sp.placement, nil)
		if err != nil {
			return nil, err
		}
		if sp.plan != nil {
			nw.ApplyFaults(sp.plan)
		}
		out[i] = simInstance{nw, tr}
	}
	return out, nil
}

func (s *packetSim) setup(context.Context) error {
	// The untimed warm pass: every op once, on a short run.
	full := s.slots
	s.slots = max(full/10, 50)
	defer func() { s.slots = full }()
	for _, seed := range s.instances {
		insts, err := s.build(seed)
		if err != nil {
			return err
		}
		for i := range simOps {
			if _, _, err := s.runOp(nil, i, seed, insts[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// simOutcome is what one op reports beyond its rendered output.
type simOutcome struct {
	meanDelay           float64
	delivered, injected int
	handovers           int
	scheduled           int
}

// runOp runs op i on its instance and renders its report.
func (s *packetSim) runOp(rec *recorder, i int, seed uint64, in simInstance) (string, simOutcome, error) {
	var o simOutcome
	root := rec.root(simOps[i])
	defer root.end()
	switch simOps[i] {
	case "sim.twoHop":
		r, err := sim.RunTwoHop(in.nw, in.tr, sim.PacketConfig{Lambda: s.lambda, Slots: s.slots, Seed: seed})
		if err != nil {
			return "", o, err
		}
		return fmt.Sprintf("%+v", *r), simOutcome{meanDelay: r.MeanDelay, delivered: r.Delivered, injected: r.Injected}, nil
	case "sim.multihop":
		r, err := sim.RunMultihop(in.nw, in.tr, sim.MultihopConfig{Lambda: s.lambda, Slots: s.slots, Seed: seed})
		if err != nil {
			return "", o, err
		}
		return fmt.Sprintf("%+v", *r), simOutcome{meanDelay: r.MeanDelay, delivered: r.Delivered, injected: r.Injected}, nil
	case "sim.infra", "sim.infraAssoc":
		cfg := sim.InfraConfig{Lambda: s.lambda, Slots: s.slots, Seed: seed}
		if simOps[i] == "sim.infraAssoc" {
			cfg.Assoc = &delay.AssocConfig{HandoverMargin: 0.02, Hysteresis: 0.01, TimeToTrigger: 8}
		}
		r, err := sim.RunInfrastructure(in.nw, in.tr, cfg)
		if err != nil {
			return "", o, err
		}
		return fmt.Sprintf("%+v", *r), simOutcome{meanDelay: r.MeanDelay, delivered: r.Delivered, injected: r.Injected, handovers: r.Handovers}, nil
	}
	scheduled := s.contactLoop(root, in.nw)
	return fmt.Sprintf("scheduled=%d", scheduled), simOutcome{scheduled: scheduled}, nil
}

// contactLoop drives the S* contact process slot by slot through the
// public layer calls: mobility step, spatial index rebuild over the
// moved points, and S* pair scheduling. It returns the number of nodes
// scheduled over all slots.
func (s *packetSim) contactLoop(root span, nw *network.Network) int {
	m := interference.NewModel(sim.DefaultSimCT/math.Sqrt(float64(nw.NumMS())), -1)
	var pos []geom.Point
	var ix *spatial.Index
	var pairs []interference.Transmission
	scheduled := 0
	for t := 0; t < s.slots; t++ {
		sp := root.child("mobility.step")
		nw.Step()
		pos = nw.MSPositions(pos)
		sp.end()
		sp = root.child("spatial.rebuild")
		if ix == nil {
			ix = spatial.New(pos, m.GuardRadius())
		} else {
			ix.Rebuild(pos)
		}
		sp.end()
		sp = root.child("scheduler.sstar")
		pairs = scheduler.SStarPairsInto(m, ix, pairs[:0])
		sp.end()
		scheduled += 2 * len(pairs)
	}
	return scheduled
}

func (s *packetSim) pass(_ context.Context, rec *recorder) (passStats, error) {
	var ps passStats
	built := make([][]simInstance, len(s.instances))
	for k, seed := range s.instances {
		insts, err := s.build(seed)
		if err != nil {
			return ps, err
		}
		built[k] = insts
	}
	first := s.ref == nil
	if first {
		s.ref = make([][]string, len(s.instances))
		for k := range s.ref {
			s.ref[k] = make([]string, len(simOps))
		}
	}
	var sumDelay [3]float64 // twoHop, multihop, infra
	var scheduled, delivered, injected, handovers int
	for k, seed := range s.instances {
		for i := range simOps {
			t0 := time.Now()
			out, o, err := s.runOp(rec, i, seed, built[k][i])
			d := time.Since(t0)
			ps.wall += d
			ps.lat = append(ps.lat, d)
			ps.ops++
			if err != nil {
				ps.failed++
				ps.problems = append(ps.problems, fmt.Sprintf("%s on instance %d: %v", simOps[i], k, err))
				continue
			}
			if first {
				s.ref[k][i] = out
			} else if s.ref[k][i] != out {
				ps.failed++
				ps.problems = append(ps.problems, fmt.Sprintf("%s on instance %d: report changed between passes", simOps[i], k))
			}
			if i < len(sumDelay) {
				sumDelay[i] += o.meanDelay
			}
			scheduled += o.scheduled
			delivered += o.delivered
			injected += o.injected
			handovers += o.handovers
		}
	}
	// Infrastructure transport's delay does not grow with the
	// source-destination distance, so it must beat both ad hoc schemes.
	// (Two-hop vs multihop is not checked: at this size both run
	// saturated and their mean delays differ by less than the seed
	// spread.)
	if !(sumDelay[2] < sumDelay[0] && sumDelay[2] < sumDelay[1]) {
		ps.failed += len(sumDelay)
		ps.problems = append(ps.problems, fmt.Sprintf("infrastructure mean delay is not the lowest: twoHop, multihop, infra = %v", sumDelay))
	}
	if rec != nil {
		s.tracedPasses++
		s.scheduled += scheduled
		s.slotsRun += s.slots * len(s.instances)
		s.delivered += delivered
		s.injected += injected
		s.handovers += handovers
	}
	return ps, nil
}

// finish reports the output invariants of the traced passes.
func (s *packetSim) finish(_ context.Context, rep *report, _ []*passRecord) {
	if s.tracedPasses == 0 {
		return
	}
	rep.layer["scheduler.scheduled_frac"] = float64(s.scheduled) / float64(s.slotsRun*s.n)
	rep.layer["sim.delivered_frac"] = float64(s.delivered) / math.Max(1, float64(s.injected))
	rep.layer["sim.handovers"] = float64(s.handovers) / float64(s.tracedPasses)
}
