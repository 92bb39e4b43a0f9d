package analysis

import "testing"

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text  string
		names []string
		ok    bool
	}{
		{"//lint:ignore errdrop best-effort cleanup", []string{"errdrop"}, true},
		{"//lint:ignore errdrop,nopanic shared justification", []string{"errdrop", "nopanic"}, true},
		{"//lint:ignore * silence everything here", []string{"*"}, true},
		{"//lint:ignore errdrop", nil, false},         // no reason
		{"//lint:ignore", nil, false},                 // no analyzer, no reason
		{"// lint:ignore errdrop reason", nil, false}, // space breaks the directive
		{"// ordinary comment", nil, false},
	}
	for _, c := range cases {
		names, ok := parseIgnore(c.text)
		if ok != c.ok {
			t.Errorf("parseIgnore(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if len(names) != len(c.names) {
			t.Errorf("parseIgnore(%q) = %v, want %v", c.text, names, c.names)
			continue
		}
		for i := range names {
			if names[i] != c.names[i] {
				t.Errorf("parseIgnore(%q) = %v, want %v", c.text, names, c.names)
				break
			}
		}
	}
}

func TestInScope(t *testing.T) {
	cases := []struct {
		analyzer string
		pkg      string
		want     bool
	}{
		{"nondeterminism", "hybridcap/internal/sim", true},
		{"nondeterminism", "hybridcap/internal/experiments", true},
		{"nondeterminism", "hybridcap/internal/asciiplot", false},
		{"nondeterminism", "hybridcap/internal/rng", false},      // rng wraps math/rand by design
		{"nondeterminism", "hybridcap/internal/obs", true},       // obs must take time from an injected Clock
		{"nondeterminism", "hybridcap/internal/cellcache", true}, // persisted entries must replay identically across hosts
		{"nondeterminism", "hybridcap/internal/blob", true},      // the store behind both caches
		{"nondeterminism", "hybridcap/internal/cli", false},      // cli constructs the wall clock for injection
		{"nondeterminism", "hybridcap/internal/spatial", true},   // query order is part of the determinism contract
		{"nondeterminism", "hybridcap/internal/geom", true},
		{"nondeterminism", "hybridcap/cmd/capsim", false},
		{"floateq", "hybridcap/internal/capacity", true},
		{"floateq", "hybridcap/internal/scaling", true},
		{"floateq", "hybridcap/internal/measure", true},
		{"floateq", "hybridcap/internal/routing", false},
		{"nopanic", "hybridcap/internal/mobility", true},
		{"nopanic", "hybridcap", true},
		{"nopanic", "hybridcap/cmd/capsim", false},
		{"nopanic", "hybridcap/examples/quickstart", false},
		{"errdrop", "hybridcap/cmd/capsim", true},
		{"errdrop", "hybridcap/internal/flow", true},
		{"maporder", "hybridcap", true},
		{"unknown", "hybridcap/internal/sim", false},
	}
	for _, c := range cases {
		if got := InScope(c.analyzer, c.pkg); got != c.want {
			t.Errorf("InScope(%q, %q) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range Analyzers() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the suite analyzer", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
}
