package sim

import (
	"math"

	"hybridcap/internal/geom"
	"hybridcap/internal/interference"
	"hybridcap/internal/network"
	"hybridcap/internal/routing"
	"hybridcap/internal/scheduler"
	"hybridcap/internal/spatial"
	"hybridcap/internal/traffic"
)

// MultihopConfig parameterizes a packet-level scheme-A run: packets are
// forwarded through contiguous squarelets toward the destination's
// home-squarelet, one hop per S* contact between nodes whose
// home-points sit in the right cells (Definition 11's relay rule).
type MultihopConfig struct {
	// Lambda is the per-node injection rate (Bernoulli per slot).
	Lambda float64
	// Slots is the number of measured slots; Warmup runs first.
	Slots, Warmup int
	// CellFrac scales the squarelet side (default routing.DefaultCellFrac).
	CellFrac float64
	// RT is the transmission range; zero selects DefaultSimCT/sqrt(n).
	RT float64
	// Delta is the guard factor; negative selects the default.
	Delta float64
	// Seed drives packet injection.
	Seed uint64
}

// MultihopReport extends the packet metrics with hop statistics.
type MultihopReport struct {
	PacketReport
	// MeanHops is the mean number of wireless hops of delivered packets.
	MeanHops float64
}

type mhPacket struct {
	dst  int32 // destination node
	born int32
	hops int16
}

// RunMultihop simulates scheme A at packet level. Routing state per
// packet is its destination; on a scheduled contact (a, b), node a
// forwards its oldest packet whose next squarelet toward the
// destination is b's home cell (or that b itself is the destination).
// It mutates the network's mobility state.
func RunMultihop(nw *network.Network, tr *traffic.Pattern, cfg MultihopConfig) (*MultihopReport, error) {
	loop := slotLoop{nw: nw, slots: cfg.Slots, warmup: cfg.Warmup, tr: tr, lambda: cfg.Lambda, seed: cfg.Seed, stream: "inject-mh"}
	if err := loop.check(cfg.RT, cfg.Delta); err != nil {
		return nil, err
	}
	n := nw.NumMS()
	rt := cfg.RT
	if rt <= 0 {
		rt = DefaultSimCT / math.Sqrt(float64(n))
	}
	frac := cfg.CellFrac
	if frac <= 0 {
		frac = routing.DefaultCellFrac
	}
	model := interference.NewModel(rt, cfg.Delta)

	// Squarelet tessellation over home-points (static routing geometry).
	side := frac * nw.Sampler.Kernel().Support() / nw.F()
	g := geom.NewGrid(side)
	homeCell := make([]int32, n)
	for i, h := range nw.HomePoints() {
		homeCell[i] = int32(g.CellIndexOf(h))
	}

	// nextCell[c][d] would be O(cells^2); compute next cell on demand
	// from the torus row-column walk (straight scheme-A paths; the
	// occupancy detours of the analytic evaluator are unnecessary here
	// because a packet just waits for a contact into the next cell).
	nextCell := func(cur, dstCell int32) int32 {
		if cur == dstCell {
			return cur
		}
		c1, r1 := g.ColRow(int(cur))
		c2, r2 := g.ColRow(int(dstCell))
		if c1 != c2 {
			step := g.ColSteps(c1, c2)
			dir := 1
			if step < 0 {
				dir = -1
			}
			return int32(g.Index(c1+dir, r1))
		}
		step := g.RowSteps(r1, r2)
		dir := 1
		if step < 0 {
			dir = -1
		}
		return int32(g.Index(c1, r1+dir))
	}

	queues := make([][]mhPacket, n)
	hopSum := 0

	// Slot-loop scratch: grid geometry is constant over the run, so the
	// index is rebuilt in place and the pair buffer reused.
	var ix *spatial.Index
	var pairs []interference.Transmission
	err := loop.run(func(i int) {
		queues[i] = append(queues[i], mhPacket{dst: int32(tr.DestOf[i]), born: int32(loop.slot)})
	}, func(pos []geom.Point) {
		if ix == nil {
			ix = spatial.New(pos, model.GuardRadius())
		} else {
			ix.Rebuild(pos)
		}
		pairs = scheduler.SStarPairsInto(model, ix, pairs)
		for _, pr := range pairs {
			forwardMultihop(&loop, pr.From, pr.To, queues, homeCell, nextCell, &hopSum)
			forwardMultihop(&loop, pr.To, pr.From, queues, homeCell, nextCell, &hopSum)
		}
	})
	if err != nil {
		return nil, err
	}
	backlog := 0
	for i := range queues {
		backlog += len(queues[i])
	}
	rep := &MultihopReport{PacketReport: loop.report(backlog)}
	if rep.Delivered > 0 {
		rep.MeanHops = float64(hopSum) / float64(rep.Delivered)
	}
	return rep, nil
}

// forwardMultihop transmits at most one packet from a to b: preferring
// final delivery, then any packet whose next squarelet is b's home
// cell. hopSum sums the wireless hops of measured deliveries.
func forwardMultihop(l *slotLoop, a, b int, queues [][]mhPacket, homeCell []int32,
	nextCell func(cur, dst int32) int32, hopSum *int) {
	q := queues[a]
	for idx := range q {
		p := q[idx]
		if int(p.dst) == b {
			// Final delivery.
			if l.deliver(p.born) {
				*hopSum += int(p.hops) + 1
			}
			queues[a] = append(q[:idx], q[idx+1:]...)
			return
		}
		if homeCell[a] == homeCell[p.dst] {
			// Already in the destination squarelet: hold until the
			// contact partner is the destination itself (handled above),
			// rather than wandering among cell members.
			continue
		}
		if nextCell(homeCell[a], homeCell[p.dst]) == homeCell[b] {
			// Forward one squarelet toward the destination.
			p.hops++
			queues[b] = append(queues[b], p)
			queues[a] = append(q[:idx], q[idx+1:]...)
			return
		}
	}
}
