package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridcap/internal/scenario"
)

func tinyScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:        "tiny",
		Description: "strong-mobility smoke regime",
		Base:        scenario.Exponents{Alpha: 0.2, K: -1, M: 1},
		Sizes:       []int{128, 256, 512},
		Seeds:       1,
		Schemes:     []string{"schemeA"},
		Placement:   "grid",
		Fit:         true,
	}
}

// RunScenario is the executor behind `capsim -scenario`: it must
// validate, sweep through the engine, and report regime, coverage and
// the requested fit.
func TestRunScenario(t *testing.T) {
	res, err := RunScenario(context.Background(), tinyScenario(), Options{Workers: 2})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if res.ID != "tiny" || len(res.Series) != 1 || res.Series[0].Len() != 3 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	if res.Fits["tiny"] == nil {
		t.Error("requested fit missing")
	}
	text := res.Text()
	for _, want := range []string{"schemes [schemeA]", "n=   128", "seeds-ok=1/1", "regime strong"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// A log-log chart needs two points: a one-size scenario (capsim's point
// mode) reports its row without a chart, and a two-size one keeps it.
func TestOneSizeScenarioHasNoChart(t *testing.T) {
	for _, sizes := range [][]int{{128}, {128, 256}} {
		sc := tinyScenario()
		sc.Sizes, sc.Fit = sizes, false
		res, err := RunScenario(context.Background(), sc, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%v: %v", sizes, err)
		}
		text := res.Text()
		if !strings.Contains(text, "n=   128 lambda=") {
			t.Errorf("%v: report missing the n=128 row:\n%s", sizes, text)
		}
		if hasChart := strings.Contains(text, "lambda vs n"); hasChart != (len(sizes) > 1) {
			t.Errorf("%v sizes: chart drawn = %v:\n%s", sizes, hasChart, text)
		}
	}
}

// The scenario's own seed count applies when the options leave Seeds
// unset, and an invalid scenario is rejected before any cell runs.
func TestRunScenarioSeedsAndValidation(t *testing.T) {
	sc := tinyScenario()
	sc.Seeds = 2
	res, err := RunScenario(context.Background(), sc, Options{Workers: 1})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if res.Series[0].Attempts[0] != 2 {
		t.Errorf("scenario seeds ignored: attempts %v", res.Series[0].Attempts)
	}

	bad := tinyScenario()
	bad.Schemes = []string{"schemeZ"}
	if _, err := RunScenario(context.Background(), bad, Options{}); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("invalid scenario accepted: %v", err)
	}
}

// The shipped example scenario files must parse, and the ones naming a
// built-in regime must be byte-identical to the registry's marshalled
// form — regenerate the file when a Table-I row changes.
func TestExampleScenarioFiles(t *testing.T) {
	builtin := map[string][]byte{}
	for _, e := range All() {
		for _, sc := range e.Scenarios {
			data, err := sc.Marshal()
			if err != nil {
				t.Fatalf("%s: marshal: %v", sc.Name, err)
			}
			builtin[sc.Name] = data
		}
	}
	dir := filepath.Join("..", "..", "examples", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("examples/scenarios missing: %v", err)
	}
	parsed := 0
	for _, entry := range entries {
		if filepath.Ext(entry.Name()) != ".json" {
			continue
		}
		path := filepath.Join(dir, entry.Name())
		sc, err := scenario.Load(path)
		if err != nil {
			t.Errorf("%s: %v", entry.Name(), err)
			continue
		}
		parsed++
		want, ok := builtin[sc.Name]
		if !ok {
			continue
		}
		got, err := sc.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", entry.Name(), err)
		}
		if string(got) != string(want) {
			t.Errorf("%s drifted from the built-in %s scenario; regenerate it from the registry", entry.Name(), sc.Name)
		}
	}
	if parsed < 3 {
		t.Errorf("want at least 3 shipped scenario files, parsed %d", parsed)
	}
}

// Every built-in scenario (Table-I rows, E3, E8, E15) must validate
// and survive the deterministic JSON round trip, so shipping them as
// example files cannot drift from the registry.
func TestBuiltinScenariosValid(t *testing.T) {
	var scs []*scenario.Scenario
	for _, e := range All() {
		scs = append(scs, e.Scenarios...)
	}
	if len(scs) != 9 {
		t.Fatalf("expected 9 built-in scenarios (5 Table-I rows + E3 + E8 + 2 E15), got %d", len(scs))
	}
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			t.Errorf("built-in scenario %s invalid: %v", sc.Name, err)
		}
		data, err := sc.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", sc.Name, err)
		}
		parsed, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", sc.Name, err)
		}
		second, err := parsed.Marshal()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", sc.Name, err)
		}
		if string(data) != string(second) {
			t.Errorf("%s: round trip drifted", sc.Name)
		}
	}
}
