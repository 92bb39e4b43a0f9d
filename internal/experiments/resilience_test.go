package experiments

import (
	"testing"

	"hybridcap/internal/network"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
)

// E14 acceptance: the BS-outage curve starts at the healthy scheme-B
// rate, decreases monotonically, and lands on the pure ad hoc floor at
// total outage.
func TestResilienceCurveShape(t *testing.T) {
	o := Options{Quick: true}
	res, err := Resilience(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(res.Series))
	}
	bs := res.Series[0]
	if bs.Len() < 3 {
		t.Fatalf("BS outage series too short: %d points", bs.Len())
	}

	// Outage 0 reproduces the plain scheme-B rate on the same instances.
	p := scaling.Params{N: 1024, Alpha: 0.4, K: 0.8, Phi: 1, M: 1}
	sum := 0.0
	for s := 0; s < o.seeds(); s++ {
		nw, tr, err := build(network.Config{Params: p, Seed: uint64(90 + s), BSPlacement: network.Grid})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := (routing.SchemeB{}).Evaluate(nw, tr)
		if err != nil {
			t.Fatal(err)
		}
		sum += ev.Lambda
	}
	healthy := sum / float64(o.seeds())
	if rel := abs(bs.Y[0]-healthy) / healthy; rel > 1e-9 {
		t.Errorf("outage-0 lambda %v != healthy scheme-B %v", bs.Y[0], healthy)
	}

	for _, s := range res.Series {
		for i := 1; i < s.Len(); i++ {
			if s.Y[i] > s.Y[i-1]*(1+1e-9) {
				t.Errorf("%s: lambda increased at x=%.2f: %v -> %v", s.Name, s.X[i], s.Y[i-1], s.Y[i])
			}
		}
	}

	// Total outage lands on the scheme-A floor.
	sumA := 0.0
	for s := 0; s < o.seeds(); s++ {
		nw, tr, err := build(network.Config{Params: p, Seed: uint64(90 + s), BSPlacement: network.Grid})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := (routing.SchemeA{}).Evaluate(nw, tr)
		if err != nil {
			t.Fatal(err)
		}
		sumA += ev.Lambda
	}
	floor := sumA / float64(o.seeds())
	last := bs.Y[bs.Len()-1]
	if rel := abs(last-floor) / floor; rel > 1e-9 {
		t.Errorf("total-outage lambda %v != ad hoc floor %v", last, floor)
	}
	if res.Ascii == "" {
		t.Error("missing ascii chart")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
