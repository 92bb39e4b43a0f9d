package sim

import (
	"math"
	"testing"

	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
	"hybridcap/internal/traffic"
)

func TestRunMultihopDelivers(t *testing.T) {
	p := scaling.Params{N: 512, Alpha: 0.25, K: -1, M: 1}
	nw := simNet(t, p, 20, network.IID)
	tr, err := traffic.NewPermutation(p.N, rng.New(20).Derive("traffic").Rand())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunMultihop(nw, tr, MultihopConfig{Lambda: 0.001, Slots: 4000, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", rep)
	}
	if rep.MeanHops < 1 {
		t.Errorf("MeanHops = %v, want >= 1", rep.MeanHops)
	}
	if rep.MeanDelay <= 0 {
		t.Errorf("MeanDelay = %v", rep.MeanDelay)
	}
}

// The multi-hop path length must grow with the extension f(n) — the
// Theta(f) hops argument of Lemma 4.
func TestRunMultihopHopsGrowWithF(t *testing.T) {
	if testing.Short() {
		t.Skip("two packet simulations")
	}
	hops := map[float64]float64{}
	for _, alpha := range []float64{0.15, 0.35} {
		p := scaling.Params{N: 512, Alpha: alpha, K: -1, M: 1}
		nw := simNet(t, p, 21, network.IID)
		tr, err := traffic.NewPermutation(p.N, rng.New(21).Derive("traffic").Rand())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunMultihop(nw, tr, MultihopConfig{Lambda: 0.0005, Slots: 6000, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Delivered == 0 {
			t.Fatalf("alpha=%v: nothing delivered", alpha)
		}
		hops[alpha] = rep.MeanHops
	}
	if hops[0.35] <= hops[0.15] {
		t.Errorf("hops did not grow with f: %v", hops)
	}
}

func TestRunMultihopErrors(t *testing.T) {
	p := scaling.Params{N: 64, Alpha: 0.25, K: -1, M: 1}
	nw := simNet(t, p, 22, network.IID)
	tr, _ := traffic.NewPermutation(p.N, rng.New(22).Rand())
	if _, err := RunMultihop(nil, tr, MultihopConfig{Lambda: 0.1, Slots: 1}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := RunMultihop(nw, tr, MultihopConfig{Lambda: 2, Slots: 1}); err == nil {
		t.Error("lambda > 1 accepted")
	}
	if _, err := RunMultihop(nw, tr, MultihopConfig{Lambda: 0.1}); err == nil {
		t.Error("zero slots accepted")
	}
	short, _ := traffic.NewPermutation(32, rng.New(22).Rand())
	if _, err := RunMultihop(nw, short, MultihopConfig{Lambda: 0.1, Slots: 1}); err == nil {
		t.Error("mismatched traffic accepted")
	}
}

// Two-hop relaying and multi-hop forwarding must conserve packets:
// with no warmup every injection and delivery is counted, so injected =
// delivered + still queued, exactly.
func TestRunMultihopConservation(t *testing.T) {
	p := scaling.Params{N: 256, Alpha: 0.2, K: -1, M: 1}
	tr, err := traffic.NewPermutation(p.N, rng.New(23).Derive("traffic").Rand())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func(nw *network.Network) (*PacketReport, error)
	}{
		{"twohop", func(nw *network.Network) (*PacketReport, error) {
			return RunTwoHop(nw, tr, PacketConfig{Lambda: 0.01, Slots: 1500, Seed: 23})
		}},
		{"multihop", func(nw *network.Network) (*PacketReport, error) {
			rep, err := RunMultihop(nw, tr, MultihopConfig{Lambda: 0.005, Slots: 1500, Seed: 23})
			if err != nil {
				return nil, err
			}
			return &rep.PacketReport, nil
		}},
	} {
		rep, err := c.run(simNet(t, p, 23, network.IID))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.Delivered == 0 {
			t.Fatalf("%s: nothing delivered: %+v", c.name, rep)
		}
		queued := int(math.Round(rep.BacklogPerNode * float64(p.N)))
		if rep.Delivered+queued != rep.Injected {
			t.Errorf("%s: conservation violated: injected %d, delivered %d, queued %d",
				c.name, rep.Injected, rep.Delivered, queued)
		}
	}
}
