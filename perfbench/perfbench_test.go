package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hybridcap/internal/obs"
)

// The benchmark runs from the root of a checkout: it reads the shipped
// example scenarios and BENCHMARK.json from there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// tinyConfig is a test-sized run of one workload: one pass of each kind
// and a single set-up, in a scratch directory.
func tinyConfig(t *testing.T, workload string, seed uint64, trace bool) config {
	nproc := runtime.NumCPU()
	return config{
		workload: workload, seed: seed, seconds: 0.01, trace: trace,
		workers: nproc, clients: nproc, serverConcurrent: 1, serverWorkers: 1,
		setupRuns: 1, out: t.TempDir(), tiny: true,
	}
}

func runTiny(t *testing.T, workload string, seed uint64, trace bool) *result {
	t.Helper()
	res, err := run(context.Background(), tinyConfig(t, workload, seed, trace), io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	return res
}

func metricNames(res *result) []string {
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func TestEveryMetricEmittedWithItsUnit(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, w, 1, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace %v: metric %s = %+v, want unit %s", w, trace, m.name, got, m.unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// tracedPass sets a workload up and runs one untraced and one traced
// pass, returning the traced pass's recorder.
func tracedPass(t *testing.T, workload string, seed uint64) (workload, *recorder) {
	t.Helper()
	ctx := context.Background()
	w, _, err := setUp(ctx, tinyConfig(t, workload, seed, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.pass(ctx, nil); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	ps, err := w.pass(ctx, rec)
	if err != nil {
		t.Fatal(err)
	}
	if ps.failed != 0 {
		t.Fatalf("%s traced pass: %d failed: %v", workload, ps.failed, ps.problems)
	}
	return w, rec
}

func TestChildSelfTimesWithinParent(t *testing.T) {
	for _, w := range workloadNames {
		_, rec := tracedPass(t, w, 1)
		trees := rec.trees()
		if len(trees) == 0 {
			t.Fatalf("%s: traced pass recorded no spans", w)
		}
		var check func(n obs.Node)
		check = func(n obs.Node) {
			if selfNS(n) < 0 {
				t.Errorf("%s: span %q: children cover %d ns more than the span", w, n.Name, -selfNS(n))
			}
			for _, c := range n.Children {
				check(c)
			}
		}
		for _, tree := range trees {
			check(tree)
		}
		var total float64
		for _, s := range rec.selfTimes() {
			total += s
		}
		var roots float64
		for _, d := range rec.rootDurations() {
			roots += d.Seconds()
		}
		if diff := total - roots; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: self times sum to %v s, root spans to %v s", w, total, roots)
		}
	}
}

func TestSecondSeedChangesInputsNotMetricSet(t *testing.T) {
	inputs := func(w workload) string {
		switch w := w.(type) {
		case *sweep:
			b, _ := json.Marshal(w.ref[0].mean)
			return w.scs[0].Name + string(b)
		case *packetSim:
			return strings.Join(w.ref[0], "\n")
		case *serveMix:
			b, _ := json.Marshal(w.seq)
			return string(b)
		}
		t.Fatalf("unknown workload type %T", w)
		return ""
	}
	for _, name := range workloadNames {
		w1, _ := tracedPass(t, name, 1)
		w2, _ := tracedPass(t, name, 2)
		if inputs(w1) == inputs(w2) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
		for _, trace := range []bool{false, true} {
			a, b := metricNames(runTiny(t, name, 1, trace)), metricNames(runTiny(t, name, 2, trace))
			if !slices.Equal(a, b) {
				t.Errorf("%s trace %v: metric sets differ across seeds: %v vs %v", name, trace, a, b)
			}
		}
	}
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters, got %q", w.Name, w.Why)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalogue %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, m, c)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalogue %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, m, c)
		}
		if c.moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", c.name)
		}
	}
}

func TestLoadGuardRefusesOversubscription(t *testing.T) {
	nproc := runtime.NumCPU()
	ok := config{workload: "table1", seconds: 1, setupRuns: 1, workers: nproc, clients: nproc, serverConcurrent: nproc, serverWorkers: 1}
	if err := ok.validate(nproc); err != nil {
		t.Fatalf("default load refused: %v", err)
	}
	for _, mutate := range []func(*config){
		func(c *config) { c.workers = nproc + 1 },
		func(c *config) { c.clients = nproc + 1 },
		func(c *config) { c.serverWorkers = 2; c.serverConcurrent = nproc },
		func(c *config) { c.workload = "nope" },
		func(c *config) { c.seconds = 0 },
	} {
		c := ok
		mutate(&c)
		if err := c.validate(nproc); err == nil {
			t.Errorf("config %+v was accepted", c)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
