package sim

import (
	"fmt"
	"math/rand"
	"sync"

	"hybridcap/internal/geom"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/traffic"
)

// The mobility stage fills blocks of blockSlots slots of MS positions;
// ringBlocks blocks circulate between it and the slot loop, so the
// stage runs at most two blocks ahead.
const (
	blockSlots = 8
	ringBlocks = 3
)

// slotLoop is the slot driver the packet simulators and the contact
// loop share. It owns the argument checks, the slot counter, the
// measuring window, the per-node Bernoulli injection draw, the
// positions of each slot and the packet accounts (injected, delivered,
// delay); a simulator keeps its forwarding rule and its own extras.
//
// Mobility runs on a second goroutine, the only code that calls the
// network's Step and MSPositions during a run. Positions depend only on
// the network's mobility stream and processes, which nothing else
// touches, and injection draws come from their own derived stream, so
// a run reports what a serial loop would and leaves the network's
// mobility state where Warmup+Slots serial steps would.
type slotLoop struct {
	nw            *network.Network
	slots, warmup int
	// tr, lambda, seed and stream drive injection: each slot, in node
	// order, node i draws a packet with probability lambda from the
	// stream derived as stream from seed. An empty stream (the contact
	// loop) draws nothing and needs no traffic.
	tr     *traffic.Pattern
	lambda float64
	seed   uint64
	stream string

	// slot and measuring describe the slot being driven; the inject and
	// forward steps read them. The accounts cover measured slots only:
	// delaySum sums the slots from injection to delivery.
	slot                int
	measuring           bool
	injected, delivered int
	delaySum            int
}

// check is the argument check every run shares; rt and delta are the
// run's transmission range and guard factor.
func (l *slotLoop) check(rt, delta float64) error {
	injects := l.stream != ""
	if l.nw == nil || (injects && l.tr == nil) {
		return fmt.Errorf("sim: nil network or traffic")
	}
	if injects && l.tr.Len() != l.nw.NumMS() {
		return fmt.Errorf("sim: traffic over %d nodes, network has %d", l.tr.Len(), l.nw.NumMS())
	}
	if l.slots <= 0 {
		return fmt.Errorf("sim: need positive slot count, got %d", l.slots)
	}
	if l.warmup < 0 {
		return fmt.Errorf("sim: negative warmup %d", l.warmup)
	}
	if injects && !(l.lambda >= 0 && l.lambda <= 1) {
		return fmt.Errorf("sim: lambda %g outside [0, 1]", l.lambda)
	}
	return checkModel(rt, delta)
}

// run drives Warmup+Slots slots. Each slot it first draws injections,
// calling inject(i) for every node i that drew a packet, then calls
// forward with the slot's MS positions, which stay valid until forward
// has returned for the last slot of their block; both read the slot
// from l.slot and l.measuring. A panic in the mobility stage comes back
// as an error; the network's mobility state is then undefined.
func (l *slotLoop) run(inject func(i int), forward func(pos []geom.Point)) error {
	nw := l.nw
	n, total := nw.NumMS(), l.warmup+l.slots
	var injRand *rand.Rand
	if l.stream != "" {
		injRand = rng.New(l.seed).Derive(l.stream).Rand()
	}

	// One backing array per run, cut into ringBlocks blocks. The stage
	// takes a block from free, fills it and sends it on full; the loop
	// hands it back only after forward has returned for the block's
	// last slot, because an index rebuilt over a slot's positions keeps
	// that slice until its next rebuild. Each channel can hold every
	// block there is, so the loop's send on free never blocks.
	ring := make([]geom.Point, ringBlocks*blockSlots*n)
	free := make(chan []geom.Point, ringBlocks)
	full := make(chan []geom.Point, ringBlocks)
	for b := 0; b < ringBlocks; b++ {
		free <- ring[b*blockSlots*n : (b+1)*blockSlots*n]
	}
	stop := make(chan struct{})
	var stageErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(full)
		defer func() {
			if r := recover(); r != nil {
				stageErr = fmt.Errorf("sim: mobility step failed: %v", r)
			}
		}()
		for base := 0; base < total; base += blockSlots {
			var blk []geom.Point
			select {
			case blk = <-free:
			case <-stop:
				return
			}
			for s := 0; s < min(blockSlots, total-base); s++ {
				nw.Step()
				nw.MSPositions(blk[s*n : s*n : (s+1)*n])
			}
			select {
			case full <- blk:
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for base := 0; base < total; base += blockSlots {
		blk, ok := <-full
		if !ok {
			// The stage ended early: it recorded why before closing full.
			return stageErr
		}
		for s := 0; s < min(blockSlots, total-base); s++ {
			l.slot = base + s
			l.measuring = l.slot >= l.warmup
			if injRand != nil {
				for i := 0; i < n; i++ {
					if injRand.Float64() < l.lambda {
						inject(i)
						if l.measuring {
							l.injected++
						}
					}
				}
			}
			forward(blk[s*n : (s+1)*n : (s+1)*n])
		}
		free <- blk
	}
	return nil
}

// deliver accounts a packet born in slot born as delivered now. It
// counts only in a measured slot, and reports whether it did, so a
// simulator can add its own per-delivery sums alongside.
func (l *slotLoop) deliver(born int32) bool {
	if !l.measuring {
		return false
	}
	l.delivered++
	l.delaySum += l.slot - int(born)
	return true
}

// report returns the run's packet metrics, given the packets still
// queued at its end.
func (l *slotLoop) report(backlog int) PacketReport {
	n := float64(l.nw.NumMS())
	rep := PacketReport{
		Injected:       l.injected,
		Delivered:      l.delivered,
		DeliveredRate:  float64(l.delivered) / n / float64(l.slots),
		BacklogPerNode: float64(backlog) / n,
	}
	if l.delivered > 0 {
		rep.MeanDelay = float64(l.delaySum) / float64(l.delivered)
	}
	return rep
}
