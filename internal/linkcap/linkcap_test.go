package linkcap

import (
	"math"
	"testing"

	"hybridcap/internal/geom"
	"hybridcap/internal/mobility"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
)

func uniformNetwork(t *testing.T, n int, alpha float64) *network.Network {
	t.Helper()
	p := scaling.Params{N: n, Alpha: alpha, K: 0.5, Phi: 0, M: 1, R: 0}
	nw, err := network.New(network.Config{Params: p, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func newAnalytic(t *testing.T, nw *network.Network, ct float64) *Analytic {
	t.Helper()
	a, err := NewAnalytic(nw, ct)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnalyticRT(t *testing.T) {
	nw := uniformNetwork(t, 400, 0.25)
	a := newAnalytic(t, nw, 0)
	if got, want := a.RT(), 1.0/20; !closeTo(got, want, 1e-12) {
		t.Errorf("RT = %v, want %v", got, want)
	}
	a2 := newAnalytic(t, nw, 2)
	if got, want := a2.RT(), 2.0/20; !closeTo(got, want, 1e-12) {
		t.Errorf("RT(ct=2) = %v, want %v", got, want)
	}
}

func closeTo(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMSMSDecreasesWithDistance(t *testing.T) {
	nw := uniformNetwork(t, 1000, 0.25)
	a := newAnalytic(t, nw, 0)
	prev := math.Inf(1)
	for d := 0.0; d < 0.3; d += 0.01 {
		v := a.MSMS(d)
		if v < 0 {
			t.Fatalf("negative capacity at %v", d)
		}
		if v > prev+1e-15 {
			t.Fatalf("MSMS increases at %v", d)
		}
		prev = v
	}
}

func TestMSMSVanishesBeyondReach(t *testing.T) {
	nw := uniformNetwork(t, 1000, 0.25)
	a := newAnalytic(t, nw, 0)
	// Two nodes with home-points farther than 2D/f never meet.
	d := 2*nw.Sampler.Kernel().Support()/nw.F() + 0.01
	if v := a.MSMS(d); v != 0 {
		t.Errorf("MSMS(%v) = %v, want 0", d, v)
	}
}

// MSMSBetween is MSMS of the home-points' torus distance bit for bit,
// and MSMSSum the in-order sum of MSMSBetween over a list less one
// position.
func TestMSMSBetweenAndSumMatchMSMS(t *testing.T) {
	nw := uniformNetwork(t, 500, 0.04)
	a := newAnalytic(t, nw, 0)
	homes := nw.HomePoints()
	ids := make([]int32, len(homes))
	for k := range ids {
		ids[k] = int32(len(homes) - 1 - k)
	}
	for _, i := range []int{0, 1, 250, len(homes) - 1} {
		p := homes[i]
		want := 0.0
		for k, id := range ids {
			v := a.MSMS(geom.Dist(p, homes[id]))
			if got := a.MSMSBetween(p, homes[id]); math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("MSMSBetween(%v, %v) = %v, MSMS(Dist) = %v", p, homes[id], got, v)
			}
			if k != i {
				want += v
			}
		}
		if got := a.MSMSSum(p, homes, ids, i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MSMSSum skipping position %d = %v, want %v", i, got, want)
		}
	}
}

// MSMSFloor never exceeds MSMS(d) for any d up to its bound, for every
// kernel, in the complete-graph regime (bound past the torus diameter)
// and below it, uncapped and where MSMS caps at 1; it is zero once the
// bound reaches the meeting reach.
func TestMSMSFloorBoundsMSMS(t *testing.T) {
	kernels := []mobility.Kernel{
		mobility.UniformDisk{D: 1},
		mobility.Cone{D: 1},
		mobility.TruncGauss{Sigma: 0.3, D: 1},
		mobility.PowerLaw{D0: 0.1, Beta: 2, D: 1},
	}
	for _, k := range kernels {
		for _, alpha := range []float64{0.04, 0.3} {
			p := scaling.Params{N: 1024, Alpha: alpha, K: -1, M: 1}
			nw, err := network.New(network.Config{Params: p, Kernel: k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, ct := range []float64{0, 0.1, 400} {
				a := newAnalytic(t, nw, ct)
				reach := a.Reach()
				positive := false
				for _, dMax := range []float64{0.3 * reach, 0.9 * reach, math.Min(reach, geom.MaxDist)} {
					floor := a.MSMSFloor(dMax)
					positive = positive || floor > 0
					for i := 0; i <= 20000; i++ {
						d := dMax * float64(i) / 20000
						if v := a.MSMS(d); floor > v {
							t.Fatalf("%s alpha=%v ct=%v: MSMSFloor(%v) = %v > MSMS(%v) = %v", k.Name(), alpha, ct, dMax, floor, d, v)
						}
					}
					if v := a.MSMS(math.Nextafter(dMax, math.Inf(1))); floor > v {
						t.Fatalf("%s alpha=%v ct=%v: MSMSFloor(%v) = %v > MSMS one ulp past it = %v", k.Name(), alpha, ct, dMax, floor, v)
					}
				}
				if !positive {
					t.Errorf("%s alpha=%v ct=%v: every floor is zero", k.Name(), alpha, ct)
				}
				if v := a.MSMSFloor(reach); v != 0 {
					t.Errorf("%s alpha=%v ct=%v: MSMSFloor(reach) = %v, want 0", k.Name(), alpha, ct, v)
				}
			}
		}
	}
}

func TestMSBSVanishesBeyondReach(t *testing.T) {
	nw := uniformNetwork(t, 1000, 0.25)
	a := newAnalytic(t, nw, 0)
	d := nw.Sampler.Kernel().Support()/nw.F() + 0.01
	if v := a.MSBS(d); v != 0 {
		t.Errorf("MSBS(%v) = %v, want 0", d, v)
	}
}

// Lemma 2 cross-check: the analytic MS-MS capacity must match the
// Monte-Carlo meeting probability.
func TestAnalyticMatchesMonteCarlo(t *testing.T) {
	nw := uniformNetwork(t, 256, 0.25)
	a := newAnalytic(t, nw, 0)
	r := rng.New(7).Rand()
	h1 := geom.Point{X: 0.5, Y: 0.5}
	f := nw.F()
	for _, sep := range []float64{0, 0.3 / f, 0.8 / f} {
		h2 := geom.Add(h1, sep, 0)
		mc := MeetingProbability(h1, h2, nw.Sampler, f, a.RT(), 300000, r)
		an := a.MSMS(sep)
		if an <= 0 {
			t.Fatalf("analytic capacity zero at separation %v", sep)
		}
		if rel := math.Abs(mc-an) / an; rel > 0.15 {
			t.Errorf("sep %v: MC %v vs analytic %v (rel %v)", sep, mc, an, rel)
		}
	}
}

func TestMeetingProbabilityZeroTrials(t *testing.T) {
	nw := uniformNetwork(t, 100, 0.2)
	if got := MeetingProbability(geom.Point{}, geom.Point{}, nw.Sampler, 1, 0.1, 0, rng.New(1).Rand()); got != 0 {
		t.Errorf("zero trials gave %v", got)
	}
}

// Lemma 9 / E10: aggregate access rate scales like k/n.
func TestAccessRateScalesLikeKOverN(t *testing.T) {
	ratios := make([]float64, 0, 3)
	for _, n := range []int{512, 2048, 8192} {
		p := scaling.Params{N: n, Alpha: 0.25, K: 0.6, Phi: 0, M: 1, R: 0}
		nw, err := network.New(network.Config{Params: p, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		a := newAnalytic(t, nw, 0)
		// Average access rate over a few MSs.
		sum := 0.0
		const probes = 64
		for i := 0; i < probes; i++ {
			sum += a.AccessRate(nw.HomePoints()[i*nw.NumMS()/probes], nw.BSPos)
		}
		avg := sum / probes
		kn := float64(nw.NumBS()) / float64(n)
		ratios = append(ratios, avg/kn)
	}
	// The ratio mu_A/(k/n) must stay bounded across n (same constant).
	for i := 1; i < len(ratios); i++ {
		if ratios[i] > 4*ratios[0] || ratios[i] < ratios[0]/4 {
			t.Errorf("access-rate constant drifts: ratios %v", ratios)
		}
	}
}

func TestLocalDensityUniformNetwork(t *testing.T) {
	nw := uniformNetwork(t, 4096, 0.25)
	g := geom.NewGridCells(8)
	field := DensityField(nw, g)
	rep, err := Uniformity(field)
	if err != nil {
		t.Fatal(err)
	}
	// Expected rho ~ pi for MS contribution; allow generous constants.
	if rep.Min < 0.5 || rep.Max > 20 {
		t.Errorf("uniform network density out of band: %+v", rep)
	}
	if rep.Ratio > 5 {
		t.Errorf("uniform network max/min ratio %v too large", rep.Ratio)
	}
}

// Fig. 1 contrast: a strongly clustered, weak-mobility network must show
// much larger density contrast than a uniform one.
func TestLocalDensityClusteredContrast(t *testing.T) {
	n := 4096
	clustered := scaling.Params{N: n, Alpha: 0.5, K: 0.5, Phi: 0, M: 0.25, R: 0.35}
	nwC, err := network.New(network.Config{Params: clustered, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := geom.NewGridCells(8)
	repC, err := Uniformity(DensityField(nwC, g))
	if err != nil {
		t.Fatal(err)
	}
	nwU := uniformNetwork(t, n, 0.25)
	repU, err := Uniformity(DensityField(nwU, g))
	if err != nil {
		t.Fatal(err)
	}
	if repC.Ratio < 3*repU.Ratio {
		t.Errorf("clustered ratio %v not clearly above uniform ratio %v", repC.Ratio, repU.Ratio)
	}
}

func TestUniformityEmpty(t *testing.T) {
	if _, err := Uniformity(nil); err == nil {
		t.Error("empty field should error")
	}
}

func TestLocalDensityCountsBS(t *testing.T) {
	// A BS inside the probe ball adds one to the density.
	s, err := mobility.NewSampler(mobility.UniformDisk{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	at := geom.Point{X: 0.5, Y: 0.5}
	n := 100
	rhoNoBS := LocalDensity(at, nil, nil, s, 10, n)
	rhoBS := LocalDensity(at, nil, []geom.Point{{X: 0.5, Y: 0.51}}, s, 10, n)
	if !closeTo(rhoBS-rhoNoBS, 1, 1e-9) {
		t.Errorf("BS contribution = %v, want 1", rhoBS-rhoNoBS)
	}
}

// MSMS hoists pi*RT^2*f^2 and caps without math.Min; it must still
// equal MSMSAt at the S* range bit for bit, capped values included.
func TestMSMSMatchesMSMSAtRT(t *testing.T) {
	for _, c := range []struct {
		n         int
		alpha, ct float64
	}{
		{256, 0.04, 0}, {1024, 0.25, 0}, {1000, 0.45, 2.5}, {64, 0, 30}, {4096, 0.3, 0.7},
	} {
		a := newAnalytic(t, uniformNetwork(t, c.n, c.alpha), c.ct)
		const steps = 4000
		end := 1.2 * a.Reach()
		capped := 0
		for s := 0; s <= steps; s++ {
			d := end * float64(s) / steps
			got, want := a.MSMS(d), a.MSMSAt(d, a.RT())
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d alpha=%g ct=%g: MSMS(%v) = %v, MSMSAt = %v", c.n, c.alpha, c.ct, d, got, want)
			}
			if got == 1 {
				capped++
			}
		}
		if c.ct == 30 && capped == 0 {
			t.Errorf("n=%d ct=%g: no capped value; the cap branch is not exercised", c.n, c.ct)
		}
	}
}
