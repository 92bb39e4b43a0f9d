package routing

import (
	"fmt"
	"math"
	"math/rand"

	"hybridcap/internal/geom"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/traffic"
)

// TwoHopRelay is the Grossglauser-Tse baseline: each packet takes at
// most two wireless hops, source -> relay -> destination, with the
// relay role spread over every node that can meet both endpoints. When
// mobility spans the whole network (f = Theta(1)) it sustains Theta(1)
// per node; once mobility is restricted (f -> infinity) most pairs have
// no common relay and the scheme collapses — the phenomenon that forces
// the Theta(f) hops of scheme A (Lemma 4).
type TwoHopRelay struct {
	// CT is the constant in the S* range; zero selects the default.
	CT float64
	// MaxRelays caps the relay set evaluated per pair (they are sampled
	// uniformly beyond the cap); zero selects 256.
	MaxRelays int
}

// Name implements Scheme.
func (s TwoHopRelay) Name() string { return "twoHopRelay" }

// Evaluate implements Scheme.
func (s TwoHopRelay) Evaluate(nw *network.Network, tr *traffic.Pattern) (*Evaluation, error) {
	if err := validate(nw, tr); err != nil {
		return nil, err
	}
	maxRelays := s.MaxRelays
	if maxRelays <= 0 {
		maxRelays = 256
	}
	a, err := linkcap.NewAnalytic(nw, s.CT)
	if err != nil {
		return nil, fmt.Errorf("routing: two-hop relay: %w", err)
	}
	homes := nw.HomePoints()
	reach := a.Reach()
	nb := newNeighborhoods(homes, reach)
	rnd := rng.New(0x2).Derive("twohop").Rand()

	ev := &Evaluation{Detail: map[string]float64{}}
	nodeLoad := make([]float64, nw.NumMS())
	lambdaPairs := math.Inf(1)

	// Pair-loop scratch (hotalloc): the candidate-relay and weight
	// buffers are allocated once per evaluation, the relays at their
	// largest size, and reused across pairs.
	relays := make([]int32, 0, len(homes))
	var weights []float64
	var sample relaySample
	if nb.complete() {
		sample = newRelaySample(len(homes), maxRelays)
	}
	for src, dst := range tr.DestOf {
		hs, hd := homes[src], homes[dst]
		direct := a.MSMSBetween(hs, hd)

		// Candidate relays: nodes whose home-point can meet both ends,
		// kept in the index's order. Where the reach covers the torus
		// every node but the pair is one, and a sample is drawn from
		// the shared list without copying it.
		cands, ps := nb.of(src)
		relays = relays[:0]
		scale := 1.0
		if nb.complete() && len(cands)-2 > maxRelays {
			scale = float64(len(cands)-2) / float64(maxRelays)
			relays = sample.draw(relays, cands, ps, int(nb.pos[dst]), rnd)
		} else {
			for _, id := range cands {
				if int(id) != src && int(id) != dst && (nb.complete() || math.Sqrt(geom.Dist2Unit(homes[id], hd)) < reach) {
					relays = append(relays, id)
				}
			}
			if len(relays) > maxRelays {
				// Sample a subset; scale the aggregate up accordingly.
				scale = float64(len(relays)) / float64(maxRelays)
				for i := 0; i < maxRelays; i++ {
					j := i + rnd.Intn(len(relays)-i)
					relays[i], relays[j] = relays[j], relays[i]
				}
				relays = relays[:maxRelays]
			}
		}
		pairCap := direct
		weights = weights[:0]
		wsum := 0.0
		for _, r := range relays {
			w := math.Min(a.MSMSBetween(hs, homes[r]), a.MSMSBetween(homes[r], hd)) / 2
			weights = append(weights, w)
			wsum += w
		}
		pairCap += wsum * scale
		if pairCap <= 0 {
			ev.Failures++
			continue
		}
		if pairCap < lambdaPairs {
			lambdaPairs = pairCap
		}
		// Load accounting at unit rate: the pair's traffic is split over
		// the direct link and relays in proportion to their capacity.
		total := direct + wsum*scale
		nodeLoad[src]++
		nodeLoad[dst]++
		for i, r := range relays {
			nodeLoad[r] += 2 * (weights[i] * scale / total)
		}
	}

	lambdaNodes := nodeLambda(ev, a, homes, &nb, nodeLoad, rnd)

	ev.Detail["lambdaPairs"] = lambdaPairs
	ev.Detail["lambdaNodes"] = lambdaNodes
	if math.IsInf(lambdaPairs, 1) && math.IsInf(lambdaNodes, 1) {
		return nil, fmt.Errorf("routing: two-hop relay routed no traffic")
	}
	if lambdaPairs <= lambdaNodes {
		ev.Lambda = lambdaPairs
		ev.Bottleneck = "pair-capacity"
	} else {
		ev.Lambda = lambdaNodes
		ev.Bottleneck = "node-airtime"
	}
	return finish(ev), nil
}

// relaySample draws a pair's relays in the complete-graph regime: the
// first k slots of a partial Fisher-Yates shuffle of the shared
// all-nodes list with the pair's two positions removed. It makes the
// same draws and yields the same relays, in the same order, as
// shuffling a copy of that list, but reads the list in place: moved
// holds, at each position of the virtual list, the id a swap put
// there (-1 = none), and touched the positions to clear after a pair.
type relaySample struct {
	k       int
	moved   []int32
	touched []int32
}

func newRelaySample(n, k int) relaySample {
	s := relaySample{k: k, moved: make([]int32, n), touched: make([]int32, 0, k)}
	for i := range s.moved {
		s.moved[i] = -1
	}
	return s
}

// draw appends the sample to out. all is the shared list and p, q the
// positions of the pair's two distinct ends in it.
func (s *relaySample) draw(out, all []int32, p, q int, rnd *rand.Rand) []int32 {
	if p > q {
		p, q = q, p
	}
	// at returns the id at position i of the list without p and q.
	at := func(i int) int32 {
		if id := s.moved[i]; id >= 0 {
			return id
		}
		if i >= p {
			i++
		}
		if i >= q {
			i++
		}
		return all[i]
	}
	m := len(all) - 2
	for i := 0; i < s.k; i++ {
		j := i + rnd.Intn(m-i)
		out = append(out, at(j))
		s.moved[j] = at(i)
		s.touched = append(s.touched, int32(j))
	}
	for _, j := range s.touched {
		s.moved[j] = -1
	}
	s.touched = s.touched[:0]
	return out
}

// nodeLambda is the node-airtime bound both baselines share: the least
// ratio of a loaded node's service to its load. A node's service, the
// expected fraction of time it is usefully scheduled, is estimated as
// its aggregate link capacity capped at 1 (Lemma 3 lower-bounds it by a
// constant in uniformly dense networks); a loaded node with none counts
// as a failure.
func nodeLambda(ev *Evaluation, a *linkcap.Analytic, homes []geom.Point, nb *neighborhoods, nodeLoad []float64, rnd interface{ Intn(int) int }) float64 {
	floor := a.MSMSFloor(math.Min(a.Reach(), geom.MaxDist))
	lambdaNodes := math.Inf(1)
	for i, load := range nodeLoad {
		if load == 0 {
			continue
		}
		nbrs, p := nb.of(i)
		service := nodeServiceRate(a, homes, i, nbrs, p, floor, rnd)
		if service <= 0 {
			ev.Failures++
			continue
		}
		if r := service / load; r < lambdaNodes {
			lambdaNodes = r
		}
	}
	return lambdaNodes
}

// nodeServiceRate estimates sum_j mu(i, j) over node i's neighbors,
// sampling beyond a cap, clipped to the unit channel bandwidth. nbrs is
// i's neighborhood as neighborhoods.of gives it, with i itself at
// position p; the sums and draws skip that position. floor is a lower
// bound on every term (linkcap.MSMSFloor over the neighbors' reach).
//
// Both branches stop adding terms once the clip is certain, and return
// the 1 the full sum would clip to. Every term is non-negative, so a
// running sum never decreases: the full sum reaches 1 once a prefix
// does. The sampled estimate sum/maxProbe*m clips once sum reaches
// maxProbe/m; the terms still to draw add at least floor each, and the
// relative rounding of up to maxProbe additions, of the test and of the
// estimate stays below 1e-13, far inside the test's 1e-9 margin. The
// remaining draws are still made, so later nodes see the same stream.
func nodeServiceRate(a *linkcap.Analytic, homes []geom.Point, i int, nbrs []int32, p int, floor float64, rnd interface{ Intn(int) int }) float64 {
	m := len(nbrs) - 1
	if m <= 0 {
		return 0
	}
	const maxProbe = 512
	hi := homes[i]
	sum := 0.0
	if m <= maxProbe {
		for k, id := range nbrs {
			if k == p {
				continue
			}
			if sum += a.MSMS(math.Sqrt(geom.Dist2Unit(hi, homes[id]))); sum >= 1 {
				return 1
			}
		}
		return sum
	}
	clip := maxProbe / float64(m) * (1 + 1e-9)
	for s := 0; s < maxProbe; s++ {
		k := rnd.Intn(m)
		if k >= p {
			k++
		}
		sum += a.MSMSBetween(hi, homes[nbrs[k]])
		if sum+float64(maxProbe-1-s)*floor >= clip {
			for s++; s < maxProbe; s++ {
				rnd.Intn(m)
			}
			return 1
		}
	}
	sum = sum / maxProbe * float64(m)
	return math.Min(1, sum)
}
