package flow

import (
	"fmt"

	"hybridcap/internal/geom"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/network"
	"hybridcap/internal/spatial"
	"hybridcap/internal/traffic"
)

// CutBound is the Lemma 6 upper bound evaluated on a concrete instance:
// lambda <= (total link capacity crossing L) / (number of s-d pairs
// separated by L).
type CutBound struct {
	// Wireless is the MS-MS plus MS-BS link capacity crossing the cut.
	Wireless float64
	// Wired is the backbone capacity crossing the cut (the mu_B ~ k^2 c
	// of Lemma 7).
	Wired float64
	// Pairs is the number of source-destination pairs separated by the
	// cut.
	Pairs int
	// Lambda is the resulting per-node rate bound.
	Lambda float64
}

// EvaluateCut computes the Lemma 6 bound for a region (the interior
// I_L of the curve L). ct <= 0 selects the default S* constant.
func EvaluateCut(nw *network.Network, tr *traffic.Pattern, region geom.Region, ct float64) (*CutBound, error) {
	if nw == nil || tr == nil || region == nil {
		return nil, fmt.Errorf("flow: nil argument to EvaluateCut")
	}
	if tr.Len() != nw.NumMS() {
		return nil, fmt.Errorf("flow: traffic size %d does not match %d MSs", tr.Len(), nw.NumMS())
	}
	a, err := linkcap.NewAnalytic(nw, ct)
	if err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	homes := nw.HomePoints()
	inside := make([]bool, nw.NumMS())
	for i, h := range homes {
		inside[i] = region.Contains(h)
	}
	bsInside := make([]bool, nw.NumBS())
	for j, y := range nw.BSPos {
		bsInside[j] = region.Contains(y)
	}

	cb := &CutBound{}
	// MS-MS capacity across the cut. Only pairs within meeting reach of
	// each other contribute, so scan neighborhoods.
	ix := spatial.New(homes, a.Reach())
	var nbrs []int32 // neighborhood scratch, reused by both scans
	for i := range homes {
		if !inside[i] {
			continue
		}
		nbrs = ix.AppendWithin(nbrs[:0], homes[i], a.Reach())
		for _, j := range nbrs {
			if int(j) != i && !inside[j] {
				cb.Wireless += a.MSMSBetween(homes[i], homes[j])
			}
		}
	}
	// MS-BS capacity across the cut, in both directions.
	for j, y := range nw.BSPos {
		nbrs = ix.AppendWithin(nbrs[:0], y, a.BSReach())
		for _, i := range nbrs {
			if inside[i] != bsInside[j] {
				cb.Wireless += a.MSBS(geom.Dist(homes[i], y))
			}
		}
	}
	// Wired BS-BS capacity across the cut: c(n) per separated pair.
	in := 0
	for _, v := range bsInside {
		if v {
			in++
		}
	}
	out := nw.NumBS() - in
	cb.Wired = nw.Cfg.Params.BandwidthC() * float64(in) * float64(out)

	for src, dst := range tr.DestOf {
		if inside[src] != inside[dst] {
			cb.Pairs++
		}
	}
	if cb.Pairs == 0 {
		return nil, fmt.Errorf("flow: cut separates no traffic pairs")
	}
	cb.Lambda = (cb.Wireless + cb.Wired) / float64(cb.Pairs)
	return cb, nil
}
