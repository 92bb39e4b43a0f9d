package sim

import (
	"fmt"
	"math"
	"sort"

	"hybridcap/internal/delay"
	"hybridcap/internal/geom"
	"hybridcap/internal/network"
	"hybridcap/internal/spatial"
	"hybridcap/internal/traffic"
)

// InfraConfig parameterizes a packet-level infrastructure run: packets
// go MS -> nearest in-range BS (uplink), ride the wired backbone for
// one slot, and wait at the BS nearest to the destination's home-point
// until the destination comes within range (downlink). This is the
// time-domain counterpart of scheme B and exhibits the
// infrastructure-mode property the paper's introduction cites: delay
// does not grow with the source-destination distance.
type InfraConfig struct {
	// Lambda is the per-node injection rate (Bernoulli per slot).
	Lambda float64
	// Slots is the number of measured slots; Warmup runs first.
	Slots, Warmup int
	// RT is the MS-BS transmission range; zero selects
	// 2*DefaultSimCT/sqrt(n) (BS access uses a slightly larger range
	// constant; orders are unaffected).
	RT float64
	// UplinksPerBS caps how many uplink packets one BS absorbs per slot
	// (its unit wireless bandwidth); zero selects 1.
	UplinksPerBS int
	// Seed drives packet injection.
	Seed uint64
	// TTL drops a packet still queued TTL slots after injection; zero
	// disables expiry.
	TTL int
	// MaxRetries bounds how many times a waiting downlink packet may
	// re-home to the next-nearest live BS after its backoff runs out.
	// Zero selects 2; negative disables re-homing. Re-homing only
	// activates when the network carries a fault plan that injects a
	// fault (faults.Config.Active).
	MaxRetries int
	// RetryBackoff is the wait in slots before the first re-home,
	// doubling on each retry (bounded exponential backoff); zero
	// selects 64.
	RetryBackoff int
	// Assoc, if set, replaces instant re-homing with BS association
	// dynamics: every MS tracks a serving BS and hands over only when a
	// candidate BS has beaten the serving one by the handover margin
	// plus hysteresis for TimeToTrigger consecutive slots (a dead
	// serving BS skips the margin test but still waits out the
	// trigger). Handovers transfer the MS's waiting downlink packets
	// over the backbone and are counted in the report's churn fields.
	// Under an association model the fault plan's BSOutageStart is
	// honored: the outage mask applies only from that slot on, so an
	// onset mid-run produces a re-association delay spike. Nil keeps
	// the legacy instant re-homing path bit-for-bit.
	Assoc *delay.AssocConfig
}

// InfraReport summarizes an infrastructure packet run.
type InfraReport struct {
	PacketReport
	// MeanBackboneHops is the mean number of wired hops per delivered
	// packet (1 on a healthy run; re-homing retries add hops).
	MeanBackboneHops float64
	// Dropped counts measured packets expired by TTL.
	Dropped int
	// Retries counts measured downlink re-homes to a farther live BS.
	Retries int
	// Erasures counts measured transmission opportunities lost to the
	// fault plan's per-slot wireless erasures.
	Erasures int
	// Handovers counts serving-BS changes executed by the association
	// model during measured slots (zero without InfraConfig.Assoc).
	Handovers int
	// Transferred counts measured downlink packets moved to another BS
	// over the backbone by association churn (handovers and dead-BS
	// queue flushes).
	Transferred int
	// MeanUplinkWait, MeanBackboneWait and MeanDownlinkWait decompose
	// MeanDelay per delivered packet: source queueing until uplink, one
	// slot per backbone transit (re-homes and transfers included), and
	// the wait in downlink queues (re-association stalls included).
	MeanUplinkWait   float64
	MeanBackboneWait float64
	MeanDownlinkWait float64
}

type infraPacket struct {
	dst     int32
	born    int32
	up      int32 // slot the packet was absorbed into the uplink
	bs      int32 // BS whose downlink queue the packet targets
	moved   int32 // slot the packet arrived at its current queue
	retries int16 // backbone transits beyond the first (re-homes, transfers)
}

// RunInfrastructure simulates scheme-B-style transport at packet level.
// It mutates the network's mobility state. Under a fault plan
// (network.Config.Faults) only live BSs serve traffic, per-slot wireless
// erasures void transmission opportunities, and downlink packets that
// wait out their backoff re-home to the next-nearest live BS.
func RunInfrastructure(nw *network.Network, tr *traffic.Pattern, cfg InfraConfig) (*InfraReport, error) {
	loop := slotLoop{nw: nw, slots: cfg.Slots, warmup: cfg.Warmup, tr: tr, lambda: cfg.Lambda, seed: cfg.Seed, stream: "inject-infra"}
	if err := loop.check(cfg.RT, 0); err != nil {
		return nil, err
	}
	if nw.NumBS() == 0 {
		return nil, fmt.Errorf("sim: infrastructure run needs base stations")
	}
	livePos, liveIDs := nw.LiveBSPositions()
	if len(liveIDs) == 0 {
		return nil, fmt.Errorf("sim: all %d base stations are down", nw.NumBS())
	}
	n := nw.NumMS()
	rt := cfg.RT
	if rt <= 0 {
		rt = 2 * DefaultSimCT / math.Sqrt(float64(n))
	}
	uplinks := cfg.UplinksPerBS
	if uplinks <= 0 {
		uplinks = 1
	}
	plan := nw.Faults()
	dyn := cfg.Assoc != nil
	if dyn {
		if err := cfg.Assoc.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	// Outage onset: under association dynamics the fault plan's BS mask
	// applies only from BSOutageStart on (zero: from the start). The
	// legacy path ignores the onset — it has no association state to
	// produce the transient with.
	onset := 0
	if dyn && plan != nil {
		onset = plan.OutageStart()
	}
	maxRetries := cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = 2
	}
	if maxRetries < 0 || plan == nil || !plan.Config().Active() || dyn {
		// Re-homing answers injected faults, so a plan that injects
		// none runs as no plan; association dynamics replace it.
		maxRetries = 0
	}
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = 64
	}

	// The alive-at-slot view applies the outage mask only from the onset
	// on. Without Assoc the onset is 0, so liveNow is BSIsLive and
	// nearestNow finds the nearest live BS.
	bsIx := spatial.New(livePos, rt)
	var allIx *spatial.Index
	if onset > 0 {
		allIx = spatial.New(nw.BSPos, rt)
	}
	liveNow := func(slot, b int) bool {
		if slot < onset {
			return true
		}
		return nw.BSIsLive(b)
	}
	nearestNow := func(pt geom.Point, slot int) int32 {
		if slot < onset {
			j, _ := allIx.Nearest(pt, nil)
			return int32(j)
		}
		j, _ := bsIx.Nearest(pt, nil)
		return int32(liveIDs[j])
	}
	// serving holds each MS's serving BS, where its downlink packets
	// wait: at first the BS nearest its home-point, alive at slot 0.
	// Only association dynamics change it.
	homes := nw.HomePoints()
	serving := make([]int32, n)
	for i, h := range homes {
		serving[i] = nearestNow(h, 0)
	}
	var tttHeld []int32 // association dynamics' time-to-trigger clocks
	if dyn {
		tttHeld = make([]int32, n)
	}
	// bsOrder lazily ranks the live BSs by distance from a destination's
	// home-point; entry r is the packet's target after r re-homes.
	orderCache := map[int32][]int32{}
	bsOrder := func(dst int32) []int32 {
		if ord, ok := orderCache[dst]; ok {
			return ord
		}
		ord := make([]int32, len(liveIDs))
		for i, b := range liveIDs {
			ord[i] = int32(b)
		}
		h := homes[dst]
		sort.Slice(ord, func(a, b int) bool {
			return geom.Dist2(nw.BSPos[ord[a]], h) < geom.Dist2(nw.BSPos[ord[b]], h)
		})
		orderCache[dst] = ord
		return ord
	}

	srcQ := make([][]infraPacket, n)           // at the source MS, waiting for uplink
	var transitQ []infraPacket                 // one backbone slot of latency
	downQ := make([][]infraPacket, nw.NumBS()) // waiting at the destination's BS

	rep := &InfraReport{}
	// Per-delivery decomposition sums over measured deliveries: backbone
	// transits, and source queueing until uplink; the rest of the delay
	// is downlink wait.
	var hopSum, srcSum, downSum int
	expired := func(p infraPacket) bool {
		if cfg.TTL <= 0 || loop.slot-int(p.born) <= cfg.TTL {
			return false
		}
		if loop.measuring {
			rep.Dropped++
		}
		return true
	}
	// Slot-loop scratch: the MS index is rebuilt in place (grid geometry
	// is constant over the run), and the drained transit buffer's
	// backing is recycled for the next slot's handovers. BSs do not
	// move, so each BS's uplink query is laid out once, on the index's
	// first build, in disks.
	var msIx *spatial.Index
	var disks []spatial.Disk
	// The uplink absorb closure is allocated once here and reads the BS
	// budget through upBudget, so the per-BS loop inside the slot loop
	// never re-creates it (hotalloc).
	var upBudget int
	absorb := func(i int) bool {
		if len(srcQ[i]) > 0 && plan != nil && plan.Erased(loop.slot, i) {
			if loop.measuring {
				rep.Erasures++
			}
			return upBudget > 0
		}
		for upBudget > 0 && len(srcQ[i]) > 0 {
			p := srcQ[i][0]
			srcQ[i] = srcQ[i][1:]
			if !expired(p) {
				p.up = int32(loop.slot)
				transitQ = append(transitQ, p)
			}
			upBudget--
		}
		return upBudget > 0
	}
	// Association-dynamics knobs, hoisted out of the slot loop.
	var (
		assocMargin float64
		assocTTT    int32
	)
	if dyn {
		assocMargin = cfg.Assoc.HandoverMargin + cfg.Assoc.Hysteresis
		assocTTT = int32(cfg.Assoc.TimeToTrigger)
	}
	err := loop.run(func(i int) {
		dst := tr.DestOf[i]
		srcQ[i] = append(srcQ[i], infraPacket{dst: int32(dst), born: int32(loop.slot), bs: serving[dst]})
	}, func(pos []geom.Point) {
		// The network keeps MS and BS positions in [0,1)², where
		// geom.Dist2Unit gives geom.Dist2's bits without its rounding.
		slot, measuring := loop.slot, loop.measuring
		// Backbone: packets handed over last slot arrive at their target
		// BS queue now. Everything is copied out, so the buffer backing
		// is reused for this slot's handovers and retries.
		for _, p := range transitQ {
			if expired(p) {
				continue
			}
			p.moved = int32(slot)
			downQ[p.bs] = append(downQ[p.bs], p)
		}
		transitQ = transitQ[:0]

		// Association dynamics: each MS compares the nearest
		// alive-at-slot BS against its serving BS; the candidate must
		// beat it by the margin (plus hysteresis) for TimeToTrigger
		// consecutive slots before the handover executes — a dead serving
		// BS skips the margin test but still waits out the trigger. The
		// handover transfers the MS's waiting downlink packets to the new
		// BS over the backbone (arriving next slot).
		if dyn {
			for i := 0; i < n; i++ {
				cand := nearestNow(pos[i], slot)
				if cand == serving[i] {
					tttHeld[i] = 0
					continue
				}
				trigger := !liveNow(slot, int(serving[i]))
				if !trigger {
					dc := math.Sqrt(geom.Dist2Unit(pos[i], nw.BSPos[cand]))
					ds := math.Sqrt(geom.Dist2Unit(pos[i], nw.BSPos[serving[i]]))
					trigger = dc+assocMargin <= ds
				}
				if !trigger {
					tttHeld[i] = 0
					continue
				}
				tttHeld[i]++
				if tttHeld[i] <= assocTTT {
					continue
				}
				old := serving[i]
				serving[i] = cand
				tttHeld[i] = 0
				if measuring {
					rep.Handovers++
				}
				q := downQ[old]
				rest := q[:0]
				for _, p := range q {
					if int(p.dst) != i {
						rest = append(rest, p)
						continue
					}
					p.retries++
					p.bs = cand
					if measuring {
						rep.Transferred++
					}
					transitQ = append(transitQ, p)
				}
				downQ[old] = rest
			}
		}

		// Uplink: each live BS absorbs up to uplinks packets from MSs in
		// range (TDMA within the cell, one transmission at a time). An
		// erased MS loses its opportunity for the slot.
		if msIx == nil {
			msIx = spatial.New(pos, rt)
			disks = msIx.Disks(nw.BSPos, rt)
		} else {
			msIx.Rebuild(pos)
		}
		for b := range disks {
			if !liveNow(slot, b) {
				continue
			}
			upBudget = uplinks
			msIx.ForEachInDisk(disks[b], absorb)
		}

		// Downlink: each live BS delivers up to uplinks packets to
		// destinations currently in range. A waiting packet whose backoff
		// ran out re-homes to the next-nearest live BS over the backbone
		// (never under association dynamics, where maxRetries is 0).
		// Survivors are compacted in place, reusing the queue's backing.
		// A dead BS cannot transmit; packets stranded there flush to the
		// destination's current serving BS over the backbone once the
		// handover has gone through. Only association dynamics strand
		// packets: legacy targets and re-homes are all live BSs.
		for b, q := range downQ {
			if len(q) == 0 {
				continue
			}
			live := liveNow(slot, b)
			budget := uplinks
			rest := q[:0]
			for _, p := range q {
				if expired(p) {
					continue
				}
				switch {
				case !live:
					if tgt := serving[p.dst]; tgt != int32(b) {
						p.retries++
						p.bs = tgt
						if measuring {
							rep.Transferred++
						}
						transitQ = append(transitQ, p)
						continue
					}
				case budget > 0 && math.Sqrt(geom.Dist2Unit(pos[p.dst], nw.BSPos[b])) <= rt:
					if plan != nil && plan.Erased(slot, int(p.dst)) {
						if measuring {
							rep.Erasures++
						}
						rest = append(rest, p)
						continue
					}
					budget--
					if loop.deliver(p.born) {
						hops := 1 + int(p.retries)
						hopSum += hops
						srcW := int(p.up) - int(p.born)
						srcSum += srcW
						downSum += slot - int(p.born) - srcW - hops
					}
					continue
				case maxRetries > 0 && int(p.retries) < maxRetries &&
					slot-int(p.moved) >= backoff<<uint(p.retries):
					if ord := bsOrder(p.dst); int(p.retries)+1 < len(ord) {
						p.retries++
						p.bs = ord[p.retries]
						p.moved = int32(slot)
						if measuring {
							rep.Retries++
						}
						transitQ = append(transitQ, p)
						continue
					}
				}
				rest = append(rest, p)
			}
			downQ[b] = rest
		}
	})
	if err != nil {
		return nil, err
	}
	backlog := 0
	for i := range srcQ {
		backlog += len(srcQ[i])
	}
	for b := range downQ {
		backlog += len(downQ[b])
	}
	rep.PacketReport = loop.report(backlog)
	if d := float64(rep.Delivered); d > 0 {
		rep.MeanBackboneHops = float64(hopSum) / d
		rep.MeanUplinkWait = float64(srcSum) / d
		rep.MeanBackboneWait = rep.MeanBackboneHops // one slot per wired transit
		rep.MeanDownlinkWait = float64(downSum) / d
	}
	return rep, nil
}
