package sim

import (
	"math"
	"testing"

	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
	"hybridcap/internal/traffic"
)

func simNet(t *testing.T, p scaling.Params, seed uint64, mob network.MobilityKind) *network.Network {
	t.Helper()
	nw, err := network.New(network.Config{Params: p, Seed: seed, Mobility: mob})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func denseParams(n int) scaling.Params {
	return scaling.Params{N: n, Alpha: 0, K: 0.5, Phi: 0, M: 1, R: 0}
}

func TestMeasureContactsBasic(t *testing.T) {
	nw := simNet(t, denseParams(1024), 1, network.IID)
	rep, err := MeasureContacts(nw, ContactConfig{Slots: 20, Warmup: 2, Delta: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PairsPerSlot <= 0 {
		t.Fatalf("no contacts scheduled: %+v", rep)
	}
	if rep.ScheduledFrac <= 0 || rep.ScheduledFrac > 1 {
		t.Fatalf("ScheduledFrac = %v", rep.ScheduledFrac)
	}
}

func TestMeasureContactsErrors(t *testing.T) {
	nw := simNet(t, denseParams(64), 2, network.IID)
	if _, err := MeasureContacts(nil, ContactConfig{Slots: 1}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := MeasureContacts(nw, ContactConfig{}); err == nil {
		t.Error("zero slots accepted")
	}
}

// Lemma 3: under S* the per-node scheduling probability is bounded
// below by a constant as n grows.
func TestScheduledFracConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-size sweep")
	}
	var fracs []float64
	for _, n := range []int{512, 2048, 8192} {
		nw := simNet(t, denseParams(n), 3, network.IID)
		rep, err := MeasureContacts(nw, ContactConfig{Slots: 10, Delta: -1})
		if err != nil {
			t.Fatal(err)
		}
		fracs = append(fracs, rep.ScheduledFrac)
	}
	for _, f := range fracs {
		if f < 0.01 {
			t.Errorf("scheduled fraction %v too small; want bounded below", f)
		}
	}
	if fracs[2] < fracs[0]/3 {
		t.Errorf("scheduled fraction decays with n: %v", fracs)
	}
}

// Theorem 2 / Remark 6: one-hop transport peaks at RT = Theta(1/sqrt(n)).
func TestContactsPeakNearCriticalRange(t *testing.T) {
	n := 2048
	nw := simNet(t, denseParams(n), 4, network.IID)
	critical := DefaultSimCT / math.Sqrt(float64(n))
	rates := map[string]float64{}
	for name, rt := range map[string]float64{
		"tiny":     critical / 8,
		"critical": critical,
		"huge":     critical * 8,
	} {
		rep, err := MeasureContacts(nw, ContactConfig{RT: rt, Slots: 15, Delta: -1})
		if err != nil {
			t.Fatal(err)
		}
		rates[name] = rep.PairsPerSlot
	}
	if rates["critical"] <= rates["tiny"] {
		t.Errorf("critical range (%v pairs) not better than tiny (%v)", rates["critical"], rates["tiny"])
	}
	if rates["critical"] <= rates["huge"] {
		t.Errorf("critical range (%v pairs) not better than huge (%v)", rates["critical"], rates["huge"])
	}
}

func TestGreedySchedulesAtLeastSStar(t *testing.T) {
	nw1 := simNet(t, denseParams(1024), 5, network.IID)
	star, err := MeasureContacts(nw1, ContactConfig{Slots: 10, Delta: -1})
	if err != nil {
		t.Fatal(err)
	}
	nw2 := simNet(t, denseParams(1024), 5, network.IID)
	greedy, err := MeasureContacts(nw2, ContactConfig{Slots: 10, Delta: -1, Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.PairsPerSlot < star.PairsPerSlot {
		t.Errorf("greedy %v < S* %v pairs/slot", greedy.PairsPerSlot, star.PairsPerSlot)
	}
	// Theorem 2's claim: the strict guard costs only a constant factor.
	if star.PairsPerSlot < greedy.PairsPerSlot/20 {
		t.Errorf("S* %v more than 20x below greedy %v", star.PairsPerSlot, greedy.PairsPerSlot)
	}
}

func TestRunTwoHopDeliversUnderCapacity(t *testing.T) {
	// Two-hop relay has Theta(n) delay (a relay must meet the specific
	// destination), so the run must be much longer than n/p slots for
	// the delivered rate to approach the injection rate.
	p := denseParams(256)
	nw := simNet(t, p, 6, network.IID)
	tr, err := traffic.NewPermutation(p.N, rng.New(6).Derive("traffic").Rand())
	if err != nil {
		t.Fatal(err)
	}
	const lambda = 0.002
	rep, err := RunTwoHop(nw, tr, PacketConfig{Lambda: lambda, Slots: 20000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", rep)
	}
	if rep.DeliveredRate < 0.3*lambda {
		t.Errorf("delivered rate %v far below injection %v (delay %v, backlog %v)",
			rep.DeliveredRate, lambda, rep.MeanDelay, rep.BacklogPerNode)
	}
	if rep.MeanDelay <= 0 {
		t.Errorf("MeanDelay = %v", rep.MeanDelay)
	}
}

func TestRunTwoHopOverloadBacklog(t *testing.T) {
	p := denseParams(256)
	tr, err := traffic.NewPermutation(p.N, rng.New(7).Derive("traffic").Rand())
	if err != nil {
		t.Fatal(err)
	}
	low, err := RunTwoHop(simNet(t, p, 7, network.IID), tr, PacketConfig{Lambda: 0.001, Slots: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunTwoHop(simNet(t, p, 7, network.IID), tr, PacketConfig{Lambda: 0.5, Slots: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if high.BacklogPerNode < 10*low.BacklogPerNode {
		t.Errorf("overload backlog %v not clearly above underload %v", high.BacklogPerNode, low.BacklogPerNode)
	}
}

func TestRunTwoHopErrors(t *testing.T) {
	p := denseParams(64)
	nw := simNet(t, p, 8, network.IID)
	tr, _ := traffic.NewPermutation(p.N, rng.New(8).Rand())
	if _, err := RunTwoHop(nil, tr, PacketConfig{Lambda: 0.1, Slots: 1}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := RunTwoHop(nw, tr, PacketConfig{Lambda: -1, Slots: 1}); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := RunTwoHop(nw, tr, PacketConfig{Lambda: 0.1}); err == nil {
		t.Error("zero slots accepted")
	}
	short, _ := traffic.NewPermutation(32, rng.New(8).Rand())
	if _, err := RunTwoHop(nw, short, PacketConfig{Lambda: 0.1, Slots: 1}); err == nil {
		t.Error("mismatched traffic accepted")
	}
}

// Theorem 8: under (near-)trivial mobility feasible links persist;
// under strong mobility they break quickly.
func TestLinkPersistence(t *testing.T) {
	// Strong mobility: dense network, i.i.d. repositioning each slot.
	strong := simNet(t, denseParams(1024), 9, network.IID)
	fStrong, err := LinkPersistence(strong, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Static nodes: links persist exactly.
	static := simNet(t, denseParams(1024), 9, network.Static)
	fStatic, err := LinkPersistence(static, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fStatic != 1 {
		t.Errorf("static persistence = %v, want 1", fStatic)
	}
	if fStrong > 0.9 {
		t.Errorf("strong-mobility persistence = %v, want well below 1", fStrong)
	}
}

func TestLinkPersistenceErrors(t *testing.T) {
	nw := simNet(t, denseParams(64), 10, network.IID)
	if _, err := LinkPersistence(nil, 0.1, 1); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := LinkPersistence(nw, 0, 1); err == nil {
		t.Error("zero range accepted")
	}
	if _, err := LinkPersistence(nw, 0.1, 0); err == nil {
		t.Error("zero slots accepted")
	}
}

// Every simulator rejects a NaN or infinite range or guard factor, and
// a NaN injection rate, instead of running with them; so does the
// link-persistence probe a non-finite range.
func TestRejectsNonFiniteModel(t *testing.T) {
	p := infraParams(64)
	nw := simNet(t, p, 8, network.IID)
	tr, _ := traffic.NewPermutation(p.N, rng.New(8).Rand())
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name             string
		lambda, rt, dlta float64
		infra            bool
	}{
		{"RT NaN", 0.1, nan, 1, true},
		{"RT +Inf", 0.1, inf, 1, true},
		{"RT -Inf", 0.1, -inf, 1, true},
		{"Delta NaN", 0.1, 0, nan, false},
		{"Delta +Inf", 0.1, 0, inf, false},
		{"Delta -Inf", 0.1, 0, -inf, false},
		{"lambda NaN", nan, 0, 1, true},
	} {
		type run struct {
			name string
			err  error
		}
		var runs []run
		_, err := RunTwoHop(nw, tr, PacketConfig{Lambda: c.lambda, Slots: 1, RT: c.rt, Delta: c.dlta})
		runs = append(runs, run{"RunTwoHop", err})
		_, err = RunMultihop(nw, tr, MultihopConfig{Lambda: c.lambda, Slots: 1, RT: c.rt, Delta: c.dlta})
		runs = append(runs, run{"RunMultihop", err})
		if !math.IsNaN(c.lambda) {
			_, err = MeasureContacts(nw, ContactConfig{Slots: 1, RT: c.rt, Delta: c.dlta})
			runs = append(runs, run{"MeasureContacts", err})
		}
		if c.infra {
			_, err = RunInfrastructure(nw, tr, InfraConfig{Lambda: c.lambda, Slots: 1, RT: c.rt})
			runs = append(runs, run{"RunInfrastructure", err})
		}
		if c.rt != 0 {
			_, err = LinkPersistence(nw, c.rt, 1)
			runs = append(runs, run{"LinkPersistence", err})
		}
		for _, r := range runs {
			if r.err == nil {
				t.Errorf("%s: %s accepted", c.name, r.name)
			}
		}
	}
}
