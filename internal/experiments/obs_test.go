package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"hybridcap/internal/blob"
	"hybridcap/internal/obs"
	"hybridcap/internal/scenario"
)

// renderObserved runs a scenario under a fresh frozen-clock runtime and
// returns the rendered metrics dump and trace JSON. A private registry
// keeps the process-default counters (mobility cache, faults) out of
// the comparison: those are process-lifetime totals, warmed by whichever
// test ran first, while everything a run publishes itself must be
// byte-identical across worker counts.
func renderObserved(t *testing.T, sc *scenario.Scenario, workers int) (*Result, string, string) {
	t.Helper()
	rt := obs.NewRuntimeWith(obs.NewFrozenClock(obs.Epoch), obs.NewRegistry())
	res, err := RunScenario(context.Background(), sc, Options{Quick: true, Seeds: 2, Workers: workers, Obs: rt})
	if err != nil {
		t.Fatalf("RunScenario workers=%d: %v", workers, err)
	}
	rt.Root.End()
	var trace bytes.Buffer
	if err := rt.Root.WriteJSON(&trace); err != nil {
		t.Fatalf("trace render: %v", err)
	}
	return res, rt.Metrics.Text(), trace.String()
}

// The observed outputs — metrics dump and span tree — must be
// byte-identical for Workers=1 and Workers=8 under a frozen clock: cell
// observations arrive per cell, in grid order, on the caller's
// goroutine, so scheduling cannot leak into what the run publishes.
func TestScenarioObsDeterministicAcrossWorkers(t *testing.T) {
	sc, err := scenario.Load("../../examples/scenarios/strong-mobility.json")
	if err != nil {
		t.Fatal(err)
	}
	_, m1, t1 := renderObserved(t, sc, 1)
	_, m8, t8 := renderObserved(t, sc, 8)
	if m1 != m8 {
		t.Errorf("metrics dumps differ between worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", m1, m8)
	}
	if t1 != t8 {
		t.Errorf("traces differ between worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", t1, t8)
	}
	for _, want := range []string{
		"engine_cells_total", "engine_cell_seconds_bucket", "engine_grids_total 1\n",
	} {
		if !strings.Contains(m1, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, m1)
		}
	}
	if !strings.Contains(t1, "sweep "+sc.Name) {
		t.Errorf("trace missing sweep span:\n%s", t1)
	}
}

// Non-sweep grid experiments publish through the same sink: the
// registry wraps every runner in an "experiment <id>" span and every
// strict grid opens a phase span, so figures/tables traces follow
// run -> experiment -> phase -> cell even off the scenario path. E5 is
// a points x seeds grid, E13 a one-seed grid. Like the scenario path,
// the published metrics and trace are byte-identical for Workers=1 and
// Workers=8 under a frozen clock.
func TestExperimentObsHierarchy(t *testing.T) {
	for _, tc := range []struct {
		id    string
		spans []string
		cells string
	}{
		{"E5", []string{"experiment E5", "grid E5 placements", "cell p=2 seed=1"}, "engine_cells_total 6"},
		{"E13", []string{"experiment E13", "grid E13 kernels", "cell p=0 seed=0", "cell p=3 seed=0"}, "engine_cells_total 4"},
	} {
		run, err := Lookup(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		render := func(workers int) (metrics, trace string) {
			rt := obs.NewRuntimeWith(obs.NewFrozenClock(obs.Epoch), obs.NewRegistry())
			if _, err := run(Options{Quick: true, Seeds: 2, Workers: workers, Obs: rt}); err != nil {
				t.Fatalf("%s workers=%d: %v", tc.id, workers, err)
			}
			rt.Root.End()
			var buf bytes.Buffer
			if err := rt.Root.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return rt.Metrics.Text(), buf.String()
		}
		m1, trace := render(1)
		m8, t8 := render(8)
		if m1 != m8 {
			t.Errorf("%s: metrics dumps differ between worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", tc.id, m1, m8)
		}
		if trace != t8 {
			t.Errorf("%s: traces differ between worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", tc.id, trace, t8)
		}
		for _, want := range tc.spans {
			if !strings.Contains(trace, want) {
				t.Errorf("%s: trace missing %q:\n%s", tc.id, want, trace)
			}
		}
		if !strings.Contains(m1, tc.cells+"\n") {
			t.Errorf("%s: metrics missing %q:\n%s", tc.id, tc.cells, m1)
		}
	}
}

// A run of several experiments counts every grid it runs, whatever its
// shape: E1 and E13 run one grid each, E5 one, E14 its outage grid and
// its scheme-A floor grid, so figures -run E1,E5,E13,E14 reports five
// at any worker count.
func TestExperimentGridsCounted(t *testing.T) {
	render := func(workers int) string {
		rt := obs.NewRuntimeWith(obs.NewFrozenClock(obs.Epoch), obs.NewRegistry())
		for _, id := range []string{"E1", "E5", "E13", "E14"} {
			run, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run(Options{Quick: true, Seeds: 2, Workers: workers, Obs: rt}); err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
		}
		return rt.Metrics.Text()
	}
	for _, workers := range []int{1, 8} {
		if m := render(workers); !strings.Contains(m, "engine_grids_total 5\n") {
			t.Errorf("workers=%d: metrics missing %q:\n%s", workers, "engine_grids_total 5", m)
		}
	}
}

// Every scenario run carries a manifest whose tallies agree with the
// series coverage counters, whose hash pins the canonical scenario
// encoding, and which round-trips through its canonical JSON.
func TestScenarioManifest(t *testing.T) {
	sc, err := scenario.Load("../../examples/scenarios/strong-mobility-outage.json")
	if err != nil {
		t.Fatal(err)
	}
	res, _, _ := renderObserved(t, sc, 4)
	man := res.Manifest
	if man == nil {
		t.Fatal("scenario result carries no manifest")
	}
	if man.Schema != obs.ManifestSchema || man.Name != sc.Name {
		t.Errorf("manifest header %+v", man)
	}
	if len(man.ScenarioSHA256) != 64 {
		t.Errorf("scenario hash %q is not a sha256 hex digest", man.ScenarioSHA256)
	}
	if man.Workers != 4 || man.Seeds != 2 {
		t.Errorf("manifest grid workers=%d seeds=%d", man.Workers, man.Seeds)
	}
	if man.Faults == "" {
		t.Error("fault scenario produced an empty manifest fault line")
	}
	if len(man.Phases) != 1 {
		t.Fatalf("manifest phases %+v", man.Phases)
	}

	series := res.Series[0]
	wantOK, wantCells := 0, 0
	for i := range series.X {
		wantOK += series.OK[i]
		wantCells += series.Attempts[i]
	}
	tally := man.Phases[0]
	if tally.Cells != wantCells || tally.OK != wantOK {
		t.Errorf("tally %+v, series report %d/%d", tally, wantOK, wantCells)
	}
	if got := man.Total(); got.Cells != wantCells {
		t.Errorf("total %+v, want %d cells", got, wantCells)
	}

	data, err := man.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var parsed obs.Manifest
	if err := blob.Decode(data, &parsed); err != nil {
		t.Fatal(err)
	}
	again, err := parsed.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("manifest round trip drifted:\n%s\nvs\n%s", data, again)
	}
}

// RunScenario without an injected runtime still produces a manifest
// (through a private frozen runtime) and leaves Options untouched for
// the caller.
func TestScenarioManifestWithoutRuntime(t *testing.T) {
	sc, err := scenario.Load("../../examples/scenarios/strong-mobility.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(context.Background(), sc, Options{Quick: true, Seeds: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest == nil {
		t.Fatal("unobserved run carries no manifest")
	}
	if got := res.Manifest.Total(); got.Cells == 0 {
		t.Errorf("manifest total %+v counted no cells", got)
	}
}
