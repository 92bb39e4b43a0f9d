package sim

import (
	"reflect"
	"testing"

	"hybridcap/internal/delay"
	"hybridcap/internal/faults"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
	"hybridcap/internal/traffic"
)

// assocNet builds a faulted network + traffic for association tests.
func assocNet(t *testing.T, p scaling.Params, seed uint64, fc faults.Config) (*network.Network, *traffic.Pattern) {
	t.Helper()
	plan, err := faults.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := network.New(network.Config{Params: p, Seed: seed, Mobility: network.IID, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.NewPermutation(p.N, rng.New(seed).Derive("traffic").Rand())
	if err != nil {
		t.Fatal(err)
	}
	return nw, tr
}

// The association path is deterministic: two identical runs agree on
// every report field.
func TestAssocDeterministic(t *testing.T) {
	p := infraParams(256)
	fc := faults.Config{Seed: 5, BSOutageFraction: 0.3, BSOutageStart: 1000}
	cfg := InfraConfig{
		Lambda: 0.002, Slots: 2000, Seed: 33,
		Assoc: &delay.AssocConfig{HandoverMargin: 0.02, Hysteresis: 0.01, TimeToTrigger: 8},
	}
	nw1, tr := assocNet(t, p, 33, fc)
	rep1, err := RunInfrastructure(nw1, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw2, _ := assocNet(t, p, 33, fc)
	rep2, err := RunInfrastructure(nw2, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Errorf("association run drifted:\n%+v\nvs\n%+v", rep1, rep2)
	}
}

// A mid-run outage under the association model must produce handover
// churn and transfers, still deliver traffic, and report a delay
// decomposition consistent with the total.
func TestAssocChurnUnderOnsetOutage(t *testing.T) {
	p := infraParams(256)
	fc := faults.Config{Seed: 5, BSOutageFraction: 0.3, BSOutageStart: 1000}
	nw, tr := assocNet(t, p, 34, fc)
	rep, err := RunInfrastructure(nw, tr, InfraConfig{
		Lambda: 0.002, Slots: 2000, Seed: 34,
		Assoc: &delay.AssocConfig{HandoverMargin: 0.02, Hysteresis: 0.01, TimeToTrigger: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered == 0 {
		t.Fatal("association path delivered nothing")
	}
	if rep.Handovers == 0 {
		t.Error("no handovers under a mid-run outage")
	}
	sum := rep.MeanUplinkWait + rep.MeanBackboneWait + rep.MeanDownlinkWait
	if diff := sum - rep.MeanDelay; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("decomposition %.6f != mean delay %.6f", sum, rep.MeanDelay)
	}
}

// Without an association config the report's churn fields stay zero and
// the legacy path is untouched (bit-identical results are separately
// pinned by the E11 golden).
func TestLegacyPathNoChurnFields(t *testing.T) {
	p := infraParams(256)
	nw := simNet(t, p, 35, network.IID)
	tr, err := traffic.NewPermutation(p.N, rng.New(35).Derive("traffic").Rand())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunInfrastructure(nw, tr, InfraConfig{Lambda: 0.002, Slots: 1500, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Handovers != 0 || rep.Transferred != 0 {
		t.Errorf("legacy run reports churn: handovers=%d transferred=%d", rep.Handovers, rep.Transferred)
	}
}

// An invalid association config must be rejected before the run starts.
func TestAssocValidation(t *testing.T) {
	p := infraParams(256)
	nw := simNet(t, p, 36, network.IID)
	tr, err := traffic.NewPermutation(p.N, rng.New(36).Derive("traffic").Rand())
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunInfrastructure(nw, tr, InfraConfig{
		Lambda: 0.002, Slots: 100, Seed: 36,
		Assoc: &delay.AssocConfig{TimeToTrigger: -1},
	})
	if err == nil {
		t.Error("negative time-to-trigger accepted")
	}
}

// A fault plan that injects nothing runs as no plan, on the legacy path
// (whose backoff re-homing answers injected faults only) and under
// association dynamics.
func TestInactivePlanMatchesNoPlan(t *testing.T) {
	p := infraParams(256)
	tr, err := traffic.NewPermutation(p.N, rng.New(42).Derive("traffic").Rand())
	if err != nil {
		t.Fatal(err)
	}
	for _, assoc := range []*delay.AssocConfig{nil, {HandoverMargin: 0.02, Hysteresis: 0.01, TimeToTrigger: 8}} {
		cfg := InfraConfig{Lambda: 0.01, Slots: 600, Warmup: 37, Seed: 42, RetryBackoff: 16, Assoc: assoc}
		want, err := RunInfrastructure(simNet(t, p, 42, network.IID), tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, fc := range []faults.Config{{}, {Seed: 9}} {
			got, err := RunInfrastructure(faultedNet(t, p, 42, fc), tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("assoc=%v plan %+v: report %+v, no plan %+v", assoc != nil, fc, *got, *want)
			}
		}
	}
}
