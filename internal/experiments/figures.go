package experiments

import (
	"fmt"
	"strings"

	"hybridcap/internal/asciiplot"
	"hybridcap/internal/capacity"
	"hybridcap/internal/geom"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/measure"
	"hybridcap/internal/network"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
	"hybridcap/internal/traffic"
)

// Figure1 reproduces Fig. 1: the local density field rho(X)
// (Definition 7) of a non-uniformly dense network (left: clustered
// home-points, weak mobility) versus a uniformly dense one (right:
// strong mobility). The contrast ratio max/min quantifies the visual
// difference.
func Figure1(o Options) (*Result, error) {
	n := 4096
	if o.Quick {
		n = 1024
	}
	gridSide := 16
	if o.Quick {
		gridSide = 8
	}
	res := &Result{
		ID:          "F1",
		Description: "Figure 1: non-uniformly dense vs uniformly dense density fields",
		XName:       "cell",
	}
	cases := []struct {
		title string
		p     scaling.Params
	}{
		{"non-uniformly dense (clustered, weak mobility)",
			scaling.Params{N: n, Alpha: 0.45, K: 0.6, Phi: 0, M: 0.4, R: 0.25}},
		{"uniformly dense (strong mobility)",
			scaling.Params{N: n, Alpha: 0.2, K: 0.6, Phi: 0, M: 1, R: 0}},
	}
	type densityCell struct {
		field []float64
		rep   linkcap.UniformityReport
	}
	cells, err := strictGrid(o, "grid F1 fields", len(cases), 1, nil, func(i, _ int) (densityCell, error) {
		return cellStep(network.Config{Params: cases[i].p, Seed: 11, BSPlacement: network.Matched}, nil,
			func(nw *network.Network, _ *traffic.Pattern) (densityCell, error) {
				field := linkcap.DensityField(nw, geom.NewGridCells(gridSide))
				rep, err := linkcap.Uniformity(field)
				return densityCell{field: field, rep: rep}, err
			})
	})
	if err != nil {
		return nil, err
	}
	var renders []string
	g := geom.NewGridCells(gridSide)
	for i, c := range cases {
		cell := cells[i]
		regime, _ := capacity.Classify(c.p)
		res.Rows = append(res.Rows, fmt.Sprintf("%-48s regime=%-8s rho range [%.3g, %.3g] ratio %.3g",
			c.title, regime, cell.rep.Min, cell.rep.Max, cell.rep.Ratio))
		hm, err := asciiplot.Heatmap(c.title, cell.field, g.Cols, g.Rows)
		if err != nil {
			return nil, err
		}
		renders = append(renders, hm)
		s := &measure.Series{Name: c.title}
		for i, v := range cell.field {
			s.Add(float64(i), v)
		}
		res.Series = append(res.Series, s)
	}
	res.Ascii = strings.Join(renders, "\n")
	return res, nil
}

// Figure2 reproduces Fig. 2: a worked example of optimal routing scheme
// B, tracing one source-destination pair through its three phases and
// reporting the per-phase sustainable rates.
func Figure2(o Options) (*Result, error) {
	n := 1024
	if o.Quick {
		n = 256
	}
	p := scaling.Params{N: n, Alpha: 0.25, K: 0.6, Phi: 0.5, M: 1, R: 0}
	nw, tr, err := build(network.Config{Params: p, Seed: 2, BSPlacement: network.Uniform})
	if err != nil {
		return nil, err
	}
	ev, err := (routing.SchemeB{}).Evaluate(nw, tr)
	if err != nil {
		return nil, err
	}
	cells := int(ev.Detail["groups"])
	side := 1
	for side*side < cells {
		side++
	}
	g := geom.NewGridCells(side)

	res := &Result{
		ID:          "F2",
		Description: "Figure 2: optimal routing scheme B phases on a concrete instance",
		XName:       "phase",
	}
	src := 0
	dst := tr.DestOf[src]
	srcCell := g.CellIndexOf(nw.HomePoints()[src])
	dstCell := g.CellIndexOf(nw.HomePoints()[dst])
	bsBySq := make(map[int]int)
	for _, y := range nw.BSPos {
		bsBySq[g.CellIndexOf(y)]++
	}
	res.Rows = append(res.Rows,
		fmt.Sprintf("network: n=%d k=%d squarelets=%d c(n)=%.4g", n, nw.NumBS(), g.NumCells(), p.BandwidthC()),
		fmt.Sprintf("phase I   MS %d (squarelet %d) -> %d BSs in its squarelet", src, srcCell, bsBySq[srcCell]),
		fmt.Sprintf("phase II  BSs of squarelet %d -> BSs of squarelet %d over the wired backbone", srcCell, dstCell),
		fmt.Sprintf("phase III %d BSs in squarelet %d -> MS %d", bsBySq[dstCell], dstCell, dst),
		fmt.Sprintf("sustainable rates: access %.4g, backbone %.4g -> lambda %.4g (bottleneck: %s)",
			ev.Detail["lambdaAccess"], ev.Detail["lambdaBackbone"], ev.Lambda, ev.Bottleneck),
	)

	// Render the squarelet map with S = source, D = destination, digits =
	// BS count per squarelet.
	var b strings.Builder
	for row := g.Rows - 1; row >= 0; row-- {
		b.WriteByte('|')
		for col := 0; col < g.Cols; col++ {
			idx := g.Index(col, row)
			switch {
			case idx == srcCell && idx == dstCell:
				b.WriteString(" SD")
			case idx == srcCell:
				b.WriteString(" S ")
			case idx == dstCell:
				b.WriteString(" D ")
			default:
				fmt.Fprintf(&b, "%2d ", bsBySq[idx]%100)
			}
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	res.Ascii = "squarelet map (S=source, D=destination, numbers = BSs per squarelet):\n" + b.String()

	s := &measure.Series{Name: "phaseRates"}
	s.Add(1, ev.Detail["lambdaAccess"])
	s.Add(2, ev.Detail["lambdaBackbone"])
	s.Add(3, ev.Detail["lambdaAccess"])
	res.Series = append(res.Series, s)
	return res, nil
}

// figure3 computes the capacity-exponent surface of Fig. 3 for a fixed
// phi over the (alpha, K) grid, with the dominance boundary marked.
func figure3(id, title string, phi float64, o Options) (*Result, error) {
	const cols, rows = 26, 21 // alpha in [0, 0.5] step 0.02, K in [0,1] step 0.05
	field := make([]float64, cols*rows)
	boundary := &measure.Series{Name: "dominance boundary K(alpha)"}
	// Analytic, but still a grid: each heatmap row is one engine cell.
	rowVals, err := strictGrid(o, "grid "+id+" rows", rows, 1, nil, func(r, _ int) ([]float64, error) {
		kexp := float64(r) / float64(rows-1)
		vals := make([]float64, cols)
		for c := 0; c < cols; c++ {
			alpha := 0.5 * float64(c) / float64(cols-1)
			p := scaling.Params{N: 1 << 20, Alpha: alpha, K: kexp, Phi: phi, M: 1, R: 0}
			e, _ := capacity.CapacityExponents(p)
			vals[c] = e
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	for r, vals := range rowVals {
		copy(field[r*cols:(r+1)*cols], vals)
	}
	// Dominance boundary: mobility term -alpha equals infra term
	// K - 1 + min(phi, 0)  =>  K = 1 - alpha - min(phi, 0).
	minPhi := phi
	if minPhi > 0 {
		minPhi = 0
	}
	for c := 0; c < cols; c++ {
		alpha := 0.5 * float64(c) / float64(cols-1)
		boundary.Add(alpha, 1-alpha-minPhi)
	}
	hm, err := asciiplot.Heatmap(title, field, cols, rows)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:          id,
		Description: title,
		XName:       "alpha",
		Series:      []*measure.Series{boundary},
		Ascii: hm + "\n(x: alpha 0..1/2, y: K 0..1; darker = larger capacity exponent;\n" +
			" region above the boundary series is infrastructure-dominant)",
	}
	res.Rows = append(res.Rows,
		fmt.Sprintf("phi = %g: infrastructure bottleneck is the %s", phi,
			capacity.BackboneBottleneck(scaling.Params{N: 2, Phi: phi})),
		fmt.Sprintf("capacity exponent = max(-alpha, K-1%+g); boundary K = 1 - alpha %+g", minPhi, -minPhi),
	)
	// Sample exponent rows like the figure's contour labels.
	for _, kexp := range []float64{0.25, 0.5, 0.75, 1.0} {
		var vals []string
		for _, alpha := range []float64{0, 0.125, 0.25, 0.375, 0.5} {
			p := scaling.Params{N: 1 << 20, Alpha: alpha, K: kexp, Phi: phi, M: 1, R: 0}
			e, _ := capacity.CapacityExponents(p)
			vals = append(vals, fmt.Sprintf("%+.3f", e))
		}
		res.Rows = append(res.Rows, fmt.Sprintf("K=%-5.3g exponents at alpha {0, 1/8, 1/4, 3/8, 1/2}: %s",
			kexp, strings.Join(vals, " ")))
	}
	return res, nil
}

// Figure3Left reproduces the left panel of Fig. 3: phi >= 0, the MS-BS
// access phase is the infrastructure bottleneck.
func Figure3Left(o Options) (*Result, error) {
	return figure3("F3L", "Figure 3 (left): capacity exponent over (alpha, K), phi >= 0", 0, o)
}

// Figure3Right reproduces the right panel of Fig. 3: phi = -1/2, the
// wired backbone is the infrastructure bottleneck.
func Figure3Right(o Options) (*Result, error) {
	return figure3("F3R", "Figure 3 (right): capacity exponent over (alpha, K), phi = -1/2", -0.5, o)
}
