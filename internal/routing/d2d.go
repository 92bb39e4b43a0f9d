package routing

import (
	"fmt"
	"math"

	"hybridcap/internal/linkcap"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/traffic"
)

// D2D is the direct-link (device-to-device) baseline: every packet
// takes exactly one wireless hop, source -> destination, with no relays
// and no infrastructure. A pair can communicate only while mobility
// brings the two nodes within transmission range of each other, so the
// scheme is viable only when mobility spans the network (f close to 1);
// any restriction strands the pairs whose home-points are further apart
// than the meeting reach 2D/f. It is the degenerate end of the scheme
// spectrum — below even two-hop relaying — and anchors the delay axis:
// its contact wait grows with the source-destination distance, the
// dependence the infrastructure modes exist to remove.
type D2D struct {
	// CT is the constant in the S* range; zero selects the default.
	CT float64
}

// Name implements Scheme.
func (s D2D) Name() string { return NameD2D }

// Evaluate implements Scheme.
func (s D2D) Evaluate(nw *network.Network, tr *traffic.Pattern) (*Evaluation, error) {
	if err := validate(nw, tr); err != nil {
		return nil, err
	}
	a, err := linkcap.NewAnalytic(nw, s.CT)
	if err != nil {
		return nil, fmt.Errorf("routing: d2d: %w", err)
	}
	homes := nw.HomePoints()
	nb := newNeighborhoods(homes, a.Reach())
	rnd := rng.New(0xD2).Derive("d2d").Rand()

	ev := &Evaluation{Detail: map[string]float64{}}
	nodeLoad := make([]float64, nw.NumMS())
	lambdaPairs := math.Inf(1)
	for src, dst := range tr.DestOf {
		direct := a.MSMSBetween(homes[src], homes[dst])
		if direct <= 0 {
			ev.Failures++
			continue
		}
		if direct < lambdaPairs {
			lambdaPairs = direct
		}
		nodeLoad[src]++
		nodeLoad[dst]++
	}

	lambdaNodes := nodeLambda(ev, a, homes, &nb, nodeLoad, rnd)

	ev.Detail["lambdaPairs"] = lambdaPairs
	ev.Detail["lambdaNodes"] = lambdaNodes
	if math.IsInf(lambdaPairs, 1) && math.IsInf(lambdaNodes, 1) {
		return nil, fmt.Errorf("routing: d2d routed no traffic")
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
