package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridcap/internal/delay"
	"hybridcap/internal/faults"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
	"hybridcap/internal/traffic"
)

// pinnedReports runs every simulator over a fixed set of configurations
// and returns one "name: %+v" line per run. The infrastructure runs
// cover both paths (legacy re-homing and association dynamics) under
// no plan, an empty plan, an outage with erasures and an outage with a
// mid-run onset, with and without a TTL, so that every fault counter is
// non-zero somewhere.
func pinnedReports(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(name string, rep any, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%s: %+v", name, rep))
	}

	mp := scaling.Params{N: 256, Alpha: 0.2, K: -1, M: 1}
	mtr, err := traffic.NewPermutation(mp.N, rng.New(40).Derive("traffic").Rand())
	if err != nil {
		t.Fatal(err)
	}
	for _, warmup := range []int{0, 37} {
		rep, err := RunTwoHop(simNet(t, mp, 40, network.IID), mtr, PacketConfig{Lambda: 0.01, Slots: 600, Warmup: warmup, Delta: -1, Seed: 40})
		add(fmt.Sprintf("twohop/warmup=%d", warmup), rep, err)
		mrep, err := RunMultihop(simNet(t, mp, 40, network.IID), mtr, MultihopConfig{Lambda: 0.005, Slots: 600, Warmup: warmup, Delta: -1, Seed: 40})
		add(fmt.Sprintf("multihop/warmup=%d", warmup), mrep, err)
	}
	for _, greedy := range []bool{false, true} {
		rep, err := MeasureContacts(simNet(t, infraParams(256), 41, network.IID), ContactConfig{Slots: 50, Warmup: 5, Delta: -1, Greedy: greedy})
		add(fmt.Sprintf("contacts/greedy=%v", greedy), rep, err)
	}

	p := infraParams(256)
	tr, err := traffic.NewPermutation(p.N, rng.New(42).Derive("traffic").Rand())
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		fc   *faults.Config
	}{
		{"none", nil},
		{"empty", &faults.Config{}},
		{"outage40+erasure", &faults.Config{Seed: 7, BSOutageFraction: 0.4, WirelessErasure: 0.1}},
		{"outage50@200", &faults.Config{Seed: 8, BSOutageFraction: 0.5, BSOutageStart: 200}},
	}
	for _, assoc := range []*delay.AssocConfig{nil, {HandoverMargin: 0.02, Hysteresis: 0.01, TimeToTrigger: 8}} {
		for _, pl := range plans {
			for _, ttl := range []int{0, 120} {
				cfg := network.Config{Params: p, Seed: 42, Mobility: network.IID}
				if pl.fc != nil {
					plan, err := faults.New(*pl.fc)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Faults = plan
				}
				nw, err := network.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := RunInfrastructure(nw, tr, InfraConfig{
					Lambda: 0.01, Slots: 600, Warmup: 37, Seed: 42,
					TTL: ttl, RetryBackoff: 16, Assoc: assoc,
				})
				add(fmt.Sprintf("infra/assoc=%v/%s/ttl=%d", assoc != nil, pl.name, ttl), rep, err)
			}
		}
	}
	return lines
}

// Every simulator's full report, to the last bit of every float, is
// pinned to testdata/reports.txt: a refactor of the slot driver or of a
// forwarding rule that changes any count, sum order or draw shows here
// as a diffable line.
func TestReportsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 22 packet simulations")
	}
	path := filepath.Join("testdata", "reports.txt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := pinnedReports(t)
	if len(got) != len(want) {
		t.Fatalf("%d reports, %s holds %d", len(got), path, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("report drifted from %s:\n got %s\nwant %s", path, got[i], want[i])
		}
	}
}
