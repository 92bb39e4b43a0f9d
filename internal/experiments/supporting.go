package experiments

import (
	"fmt"
	"math"

	"hybridcap/internal/asciiplot"
	"hybridcap/internal/capacity"
	"hybridcap/internal/flow"
	"hybridcap/internal/geom"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/measure"
	"hybridcap/internal/network"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
	"hybridcap/internal/scenario"
	"hybridcap/internal/sim"
	"hybridcap/internal/traffic"
)

// UniformDensity (E1) validates Theorem 1: sweeping the network
// extension alpha moves the mobility index f*sqrt(gamma) across 1, and
// the density contrast max(rho)/min(rho) transitions from bounded to
// diverging as the index does.
func UniformDensity(o Options) (*Result, error) {
	n := 4096
	if o.Quick {
		n = 1024
	}
	res := &Result{
		ID:          "E1",
		Description: "Theorem 1: density contrast vs mobility index f*sqrt(gamma)",
		XName:       "mobilityIndex",
	}
	ratio := &measure.Series{Name: "density max/min"}
	g := geom.NewGridCells(10)
	// Two parameter families straddle the f*sqrt(gamma) = 1 threshold:
	// uniform home-points (M = 1) stay strong for every alpha < 1/2
	// (index < 1, bounded contrast); clustered home-points (valid only
	// with R > M/2, hence index > 1) are non-uniformly dense and their
	// contrast diverges with the index. This is exactly the structural
	// consequence of Theorem 1: separated clusters force the network
	// out of the uniformly dense regime.
	points := []scaling.Params{
		{N: n, Alpha: 0.1, K: 0.6, Phi: 0, M: 1, R: 0},
		{N: n, Alpha: 0.25, K: 0.6, Phi: 0, M: 1, R: 0},
		{N: n, Alpha: 0.4, K: 0.6, Phi: 0, M: 1, R: 0},
		{N: n, Alpha: 0.3, K: 0.6, Phi: 0, M: 0.5, R: 0.3},
		{N: n, Alpha: 0.4, K: 0.6, Phi: 0, M: 0.5, R: 0.35},
		{N: n, Alpha: 0.45, K: 0.6, Phi: 0, M: 0.5, R: 0.35},
		{N: n, Alpha: 0.5, K: 0.6, Phi: 0, M: 0.5, R: 0.35},
	}
	for _, p := range points {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: E1 point %v: %w", p, err)
		}
	}
	reps, err := strictGrid(o, "grid E1 points", len(points), 1, nil, func(i, _ int) (linkcap.UniformityReport, error) {
		return cellStep(network.Config{Params: points[i], Seed: 21, BSPlacement: network.Matched}, nil,
			func(nw *network.Network, _ *traffic.Pattern) (linkcap.UniformityReport, error) {
				return linkcap.Uniformity(linkcap.DensityField(nw, g))
			})
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		rep := reps[i]
		// An exactly-zero minimum density (regions out of reach of every
		// home-point) is the extreme of non-uniformity; cap the ratio so
		// it stays plottable.
		capped := math.Min(rep.Ratio, 1e9)
		ratio.Add(p.MobilityIndex(), capped)
		res.Rows = append(res.Rows, fmt.Sprintf("alpha=%.2f M=%.2g f*sqrt(gamma)=%8.3f ratio=%8.3g regime=%v",
			p.Alpha, p.M, p.MobilityIndex(), rep.Ratio, firstOf(capacity.Classify(p))))
	}
	res.Series = append(res.Series, ratio)
	chart := asciiplot.LineChart{LogX: true, LogY: true, Title: "density contrast vs mobility index"}
	ascii, err := chart.Render([]string{ratio.Name}, [][]float64{ratio.X}, [][]float64{ratio.Y})
	if err != nil {
		return nil, err
	}
	res.Ascii = ascii
	return res, nil
}

func firstOf(r capacity.Regime, _ capacity.Indicators) capacity.Regime { return r }

// OptimalRT (E2) validates Theorem 2 / Remark 6: the simulated one-hop
// transport rate under the position-based policy peaks at
// RT = Theta(1/sqrt(n)) — smaller ranges starve links, larger ranges
// drown the network in interference.
func OptimalRT(o Options) (*Result, error) {
	n := 2048
	slots := 40
	if o.Quick {
		n = 512
		slots = 10
	}
	p := scaling.Params{N: n, Alpha: 0, K: -1, M: 1, R: 0}
	res := &Result{
		ID:          "E2",
		Description: "Theorem 2: one-hop transport vs transmission range (peak at c/sqrt(n))",
		XName:       "rt*sqrt(n)",
	}
	series := &measure.Series{Name: "scheduled pairs per slot"}
	critical := 1 / math.Sqrt(float64(n))
	mults := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 1, 2, 4, 8}
	reps, err := strictGrid(o, "grid E2 ranges", len(mults), 1, nil, func(i, _ int) (*sim.ContactReport, error) {
		return cellStep(network.Config{Params: p, Seed: 22}, nil,
			func(nw *network.Network, _ *traffic.Pattern) (*sim.ContactReport, error) {
				return sim.MeasureContacts(nw, sim.ContactConfig{RT: mults[i] * critical, Slots: slots, Delta: -1})
			})
	})
	if err != nil {
		return nil, err
	}
	for i, mult := range mults {
		rep := reps[i]
		series.Add(mult, rep.PairsPerSlot)
		res.Rows = append(res.Rows, fmt.Sprintf("rt=%.3f/sqrt(n) pairs/slot=%8.2f scheduledFrac=%.4f",
			mult, rep.PairsPerSlot, rep.ScheduledFrac))
	}
	res.Series = append(res.Series, series)
	chart := asciiplot.LineChart{LogX: true, Title: "S* pairs/slot vs RT (multiples of 1/sqrt(n))"}
	ascii, err := chart.Render([]string{series.Name}, [][]float64{series.X}, [][]float64{series.Y})
	if err != nil {
		return nil, err
	}
	res.Ascii = ascii
	return res, nil
}

// e3Scenario is the declarative regime of NoBSCapacity's sweep. The
// scenario name is the series/fit key (and seed salt) "schemeA".
func e3Scenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:        "schemeA",
		Description: "Theorem 3: BS-free strong-mobility capacity Theta(1/f)",
		Base:        scenario.Exponents{Alpha: 0.3, K: -1, M: 1},
		Sizes:       []int{1024, 2048, 4096, 8192, 16384},
		QuickSizes:  []int{512, 1024, 2048},
		Schemes:     []string{"schemeA"},
		Placement:   "grid",
		Fit:         true,
	}
}

// NoBSCapacity (E3) validates Theorem 3: the BS-free capacity under
// scheme A scales as 1/f(n), and stays below the Lemma 6 cut bound.
func NoBSCapacity(o Options) (*Result, error) {
	sc := e3Scenario()
	sizes := o.sizes(sc.SizesFor(false), sc.SizesFor(true))
	base := sc.Base.Params(0)
	res := &Result{
		ID:          "E3",
		Description: "Theorem 3: BS-free capacity Theta(1/f) with cut-bound check",
		XName:       "n",
		Fits:        map[string]*measure.Fit{},
	}
	lam, _, err := sweepScenario(o, sc, sizes)
	if err != nil {
		return nil, err
	}
	bound := &measure.Series{Name: "cutBound"}
	cuts, err := strictGrid(o, "grid E3 cut bound", len(sizes), 1, sizes, func(i, _ int) (float64, error) {
		return cellStep(network.Config{Params: base.WithN(sizes[i]), Seed: 23, BSPlacement: network.Grid}, nil,
			EvaluateHalfTorusCut)
	})
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		bound.Add(float64(n), cuts[i])
	}
	res.Series = append(res.Series, lam, bound)
	fit, err := lam.Fit()
	if err != nil {
		return nil, err
	}
	res.Fits[sc.Name] = fit
	for i := range lam.X {
		ok := "OK"
		if lam.Y[i] > bound.Y[i] {
			ok = "VIOLATED"
		}
		res.Rows = append(res.Rows, fmt.Sprintf("n=%6.0f lambda=%.5g cutBound=%.5g %s",
			lam.X[i], lam.Y[i], bound.Y[i], ok))
	}
	res.Rows = append(res.Rows, fmt.Sprintf("fitted exponent %.3f (theory %.3f), R2=%.3f",
		fit.Exponent, -sc.Base.Alpha, fit.R2))
	return res, nil
}

// DominanceCrossover (E4) validates Remark 10 and Theorem 5: sweeping K
// at fixed alpha moves the network from mobility-dominant
// (lambda ~ 1/f, flat in K) to infrastructure-dominant (lambda ~ k/n,
// growing with K), with the crossover at K = 1 - alpha.
func DominanceCrossover(o Options) (*Result, error) {
	n := 8192
	if o.Quick {
		n = 1024
	}
	alpha := 0.3
	res := &Result{
		ID:          "E4",
		Description: "Remark 10: mobility- vs infrastructure-dominant crossover in K",
		XName:       "K",
	}
	measured := &measure.Series{Name: "measured lambda"}
	theory := &measure.Series{Name: "theory exponent eval"}
	kexps := []float64{0.3, 0.45, 0.6, 0.7, 0.8, 0.9, 1.0}
	eval := bestOf(schemeEval(routing.SchemeA{}), schemeEval(routing.SchemeB{}))
	lambdas, err := strictGrid(o, "grid E4 K", len(kexps), 1, nil, func(i, _ int) (float64, error) {
		p := scaling.Params{N: n, Alpha: alpha, K: kexps[i], Phi: 1, M: 1, R: 0}
		return cellStep(network.Config{Params: p, Seed: 24, BSPlacement: network.Grid}, nil, eval)
	})
	if err != nil {
		return nil, err
	}
	for i, kexp := range kexps {
		p := scaling.Params{N: n, Alpha: alpha, K: kexp, Phi: 1, M: 1, R: 0}
		v := lambdas[i]
		measured.Add(kexp, v)
		theory.Add(kexp, capacity.PerNodeCapacity(p).Eval(float64(n)))
		res.Rows = append(res.Rows, fmt.Sprintf("K=%.2f lambda=%.5g dominance=%v",
			kexp, v, capacity.Dominance(p)))
	}
	res.Series = append(res.Series, measured, theory)
	res.Rows = append(res.Rows, fmt.Sprintf("theory crossover at K = 1 - alpha = %.2f", 1-alpha))
	chart := asciiplot.LineChart{LogY: true, Title: "lambda vs K (crossover)"}
	ascii, err := chart.Render(
		[]string{measured.Name, theory.Name},
		[][]float64{measured.X, theory.X},
		[][]float64{measured.Y, theory.Y})
	if err != nil {
		return nil, err
	}
	res.Ascii = ascii
	return res, nil
}

// PlacementInvariance (E5) validates Theorem 6: switching BS deployment
// from the matched clustered model to uniform or regular-grid placement
// changes scheme B's rate by at most a constant factor.
func PlacementInvariance(o Options) (*Result, error) {
	n := 8192
	if o.Quick {
		n = 2048
	}
	p := scaling.Params{N: n, Alpha: 0.25, K: 0.7, Phi: 1, M: 1, R: 0}
	res := &Result{
		ID:          "E5",
		Description: "Theorem 6: BS placement invariance of per-node capacity",
		XName:       "placement",
	}
	series := &measure.Series{Name: "lambda"}
	vals := map[network.BSPlacement]float64{}
	placements := []network.BSPlacement{network.Matched, network.Uniform, network.Grid}
	lambdas, err := strictGrid(o, "grid E5 placements", len(placements), o.seeds(), nil,
		func(point, seed int) (float64, error) {
			cfg := network.Config{Params: p, Seed: uint64(100*seed + 25), BSPlacement: placements[point]}
			return cellStep(cfg, nil, lambdaOf(routing.SchemeB{}))
		})
	if err != nil {
		return nil, err
	}
	means := pointMeans(lambdas, o.seeds())
	for i, placement := range placements {
		mean := means[i]
		vals[placement] = mean
		series.Add(float64(i+1), mean)
		res.Rows = append(res.Rows, fmt.Sprintf("%-8s lambda=%.5g", placement, mean))
	}
	res.Series = append(res.Series, series)
	worst, best := math.Inf(1), 0.0
	for _, v := range vals {
		worst = math.Min(worst, v)
		best = math.Max(best, v)
	}
	res.Rows = append(res.Rows, fmt.Sprintf("max/min ratio = %.3f (theory: Theta(1))", best/worst))
	return res, nil
}

// ClusterIsolation (E6) validates Lemma 12: with M - 2R < 0 and
// RT = r*sqrt(m/n), the probability that any two clusters come within
// interference distance (4+Delta)*r of each other vanishes as n grows.
func ClusterIsolation(o Options) (*Result, error) {
	sizes := o.sizes([]int{1024, 4096, 16384, 65536}, []int{512, 2048, 8192})
	// M - 2R = -0.5: the total cluster area shrinks fast enough that the
	// vanishing of the close-pair fraction is visible at laptop n. The
	// paper only requires M - 2R < 0; smaller differences converge too
	// slowly to observe.
	base := scaling.Params{Alpha: 0.45, K: 0.7, Phi: 0, M: 0.2, R: 0.35}
	res := &Result{
		ID:          "E6",
		Description: "Lemma 12: inter-cluster interference probability vanishes",
		XName:       "n",
	}
	series := &measure.Series{Name: "fraction of clusters with close neighbor"}
	const delta = 1.0
	vals, err := strictGrid(o, "grid E6 isolation", len(sizes), o.seeds(), sizes,
		func(point, seed int) (float64, error) {
			p := base.WithN(sizes[point])
			return cellStep(network.Config{Params: p, Seed: uint64(31 + seed), BSPlacement: network.Matched}, nil,
				func(nw *network.Network, _ *traffic.Pattern) (float64, error) {
					centers := nw.Placement.ClusterCenters
					r := p.ClusterRadius()
					tooClose := 0
					for i := range centers {
						for j := range centers {
							if i != j && geom.Dist(centers[i], centers[j]) < (4+delta)*r {
								tooClose++
								break
							}
						}
					}
					return float64(tooClose) / float64(len(centers)), nil
				})
		})
	if err != nil {
		return nil, err
	}
	fracs := pointMeans(vals, o.seeds())
	for i, n := range sizes {
		frac := fracs[i]
		p := base.WithN(n)
		series.Add(float64(n), frac)
		res.Rows = append(res.Rows, fmt.Sprintf("n=%6d m=%4d r=%.4f close-fraction=%.4f",
			n, p.NumClusters(), p.ClusterRadius(), frac))
	}
	res.Series = append(res.Series, series)
	first, last := series.Y[0], series.Y[series.Len()-1]
	res.Rows = append(res.Rows, fmt.Sprintf("trend: %.4f -> %.4f (theory: -> 0 since M-2R=%.2f < 0)",
		first, last, base.M-2*base.R))
	return res, nil
}

// TrivialMobilityPersistence (E7) validates Theorem 8: the fraction of
// wireless links that survive several slots approaches 1 as the
// parameter point moves toward the trivial regime, so the network is
// equivalent to a static one.
func TrivialMobilityPersistence(o Options) (*Result, error) {
	n := 4096
	slots := 10
	if o.Quick {
		n = 1024
	}
	res := &Result{
		ID:          "E7",
		Description: "Theorem 8: link persistence by regime (trivial behaves static)",
		XName:       "subnetIndex",
	}
	series := &measure.Series{Name: "link persistence"}
	// Points with M - 2R >= 0 have no isolated-subnet structure and are
	// filtered before the grid runs.
	var points []scaling.Params
	for _, alpha := range []float64{0.15, 0.3, 0.45, 0.6, 0.75, 0.9} {
		p := scaling.Params{N: n, Alpha: alpha, K: 0.6, Phi: 0, M: 0.2, R: math.Min(0.11, alpha)}
		if p.M-2*p.R >= 0 {
			continue
		}
		points = append(points, p)
	}
	persistence, err := strictGrid(o, "grid E7 points", len(points), 1, nil, func(i, _ int) (float64, error) {
		p := points[i]
		// Probe links at the weak-regime optimal range r*sqrt(m/n).
		rt := p.ClusterRadius() * math.Sqrt(float64(p.NumClusters())/float64(n))
		return cellStep(network.Config{Params: p, Seed: 26, BSPlacement: network.Matched}, nil,
			func(nw *network.Network, _ *traffic.Pattern) (float64, error) {
				return sim.LinkPersistence(nw, rt, slots)
			})
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		pers := persistence[i]
		regime, _ := capacity.Classify(p)
		series.Add(p.SubnetMobilityIndex(), pers)
		res.Rows = append(res.Rows, fmt.Sprintf("alpha=%.2f subnetIndex=%9.3g persistence=%.3f regime=%v",
			p.Alpha, p.SubnetMobilityIndex(), pers, regime))
	}
	res.Series = append(res.Series, series)
	return res, nil
}

// e8Scenario is the declarative regime of WeakNoBS's sweep: the
// gridMultihop scheme resolves its cell side sqrt(gamma(n)) at each
// grid point's own parameters.
func e8Scenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:        "gridMultihop",
		Description: "Corollary 3: weak-mobility BS-free capacity",
		Base:        scenario.Exponents{Alpha: 0.45, K: -1, M: 0.8, R: 0.42},
		Sizes:       []int{2048, 4096, 8192, 16384, 32768},
		QuickSizes:  []int{1024, 2048, 4096},
		Schemes:     []string{"gridMultihop"},
		Placement:   "grid",
		Fit:         true,
	}
}

// WeakNoBS (E8) validates Corollary 3: without infrastructure, the
// non-uniformly dense network's capacity scales as
// sqrt(m/(n^2 log m)).
func WeakNoBS(o Options) (*Result, error) {
	sc := e8Scenario()
	sizes := o.sizes(sc.SizesFor(false), sc.SizesFor(true))
	res := &Result{
		ID:          "E8",
		Description: "Corollary 3: weak-mobility BS-free capacity",
		XName:       "n",
		Fits:        map[string]*measure.Fit{},
	}
	lam, _, err := sweepScenario(o, sc, sizes)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, lam)
	fit, err := lam.Fit()
	if err != nil {
		return nil, err
	}
	res.Fits[sc.Name] = fit
	theory := capacity.PerNodeCapacity(sc.Base.Params(sizes[0]))
	res.Rows = append(res.Rows, fmt.Sprintf("fitted exponent %.3f vs theory %v", fit.Exponent, theory))
	return res, nil
}

// OptimalPhi (E9) validates the Section IV.B discussion: sweeping phi,
// scheme B's rate grows while the backbone is the bottleneck (phi < 0)
// and saturates once the access phase dominates (phi >= 0); the paper's
// prose places the saturation at phi = 1 — see EXPERIMENTS.md for the
// discrepancy note.
func OptimalPhi(o Options) (*Result, error) {
	n := 8192
	if o.Quick {
		n = 2048
	}
	res := &Result{
		ID:          "E9",
		Description: "optimal phi: backbone saturation at phi = 0",
		XName:       "phi",
	}
	series := &measure.Series{Name: "lambda(schemeB)"}
	phis := []float64{-1, -0.75, -0.5, -0.25, 0, 0.25, 0.5, 1}
	evs, err := strictGrid(o, "grid E9 phi", len(phis), 1, nil, func(i, _ int) (*routing.Evaluation, error) {
		p := scaling.Params{N: n, Alpha: 0.25, K: 0.6, Phi: phis[i], M: 1, R: 0}
		return cellStep(network.Config{Params: p, Seed: 27, BSPlacement: network.Grid}, nil, routing.SchemeB{}.Evaluate)
	})
	if err != nil {
		return nil, err
	}
	for i, phi := range phis {
		p := scaling.Params{N: n, Alpha: 0.25, K: 0.6, Phi: phi, M: 1, R: 0}
		ev := evs[i]
		series.Add(phi, ev.Lambda)
		res.Rows = append(res.Rows, fmt.Sprintf("phi=%+5.2f lambda=%.5g bottleneck=%-8s theory-bottleneck=%s",
			phi, ev.Lambda, ev.Bottleneck, capacity.BackboneBottleneck(p)))
	}
	res.Series = append(res.Series, series)
	chart := asciiplot.LineChart{LogY: true, Title: "lambda vs phi (saturation at 0)"}
	ascii, err := chart.Render([]string{series.Name}, [][]float64{series.X}, [][]float64{series.Y})
	if err != nil {
		return nil, err
	}
	res.Ascii = ascii
	return res, nil
}

// AccessRate (E10) validates Lemma 9: the aggregate MS-to-infrastructure
// link capacity mu^A scales as Theta(k/n).
func AccessRate(o Options) (*Result, error) {
	n := 4096
	if o.Quick {
		n = 1024
	}
	res := &Result{
		ID:          "E10",
		Description: "Lemma 9: per-MS aggregate access rate Theta(k/n)",
		XName:       "K",
	}
	ratio := &measure.Series{Name: "muA / (k/n)"}
	kexps := []float64{0.4, 0.5, 0.6, 0.7, 0.8}
	type accessCell struct {
		mean  float64
		numBS int
	}
	cells, err := strictGrid(o, "grid E10 K", len(kexps), 1, nil, func(i, _ int) (accessCell, error) {
		p := scaling.Params{N: n, Alpha: 0.25, K: kexps[i], Phi: 0, M: 1, R: 0}
		return cellStep(network.Config{Params: p, Seed: 28, BSPlacement: network.Uniform}, nil,
			func(nw *network.Network, _ *traffic.Pattern) (accessCell, error) {
				a, err := linkcap.NewAnalytic(nw, 0)
				if err != nil {
					return accessCell{}, err
				}
				const probes = 128
				sum := 0.0
				for i := 0; i < probes; i++ {
					sum += a.AccessRate(nw.HomePoints()[i*nw.NumMS()/probes], nw.BSPos)
				}
				return accessCell{mean: sum / probes, numBS: nw.NumBS()}, nil
			})
	})
	if err != nil {
		return nil, err
	}
	for i, kexp := range kexps {
		c := cells[i]
		kn := float64(c.numBS) / float64(n)
		ratio.Add(kexp, c.mean/kn)
		res.Rows = append(res.Rows, fmt.Sprintf("K=%.2f k=%5d muA=%.5g k/n=%.5g ratio=%.3f",
			kexp, c.numBS, c.mean, kn, c.mean/kn))
	}
	res.Series = append(res.Series, ratio)
	res.Rows = append(res.Rows, "theory: ratio constant in K (Lemma 9)")
	return res, nil
}

// EvaluateHalfTorusCut computes the Lemma 6 bound for the canonical
// constant-length half-torus cut.
func EvaluateHalfTorusCut(nw *network.Network, tr *traffic.Pattern) (float64, error) {
	cb, err := flow.EvaluateCut(nw, tr, geom.HalfTorus(), 0)
	if err != nil {
		return 0, err
	}
	return cb.Lambda, nil
}
