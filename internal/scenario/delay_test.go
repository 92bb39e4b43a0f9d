package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"hybridcap/internal/delay"
)

// Delay and association specs must fail Validate with their sentinel
// errors, so callers (CLI, daemon) can classify rejections without
// string matching.
func TestValidateDelaySentinels(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   error
	}{
		{"quantile at 0", func(s *Scenario) {
			s.Delay = &DelaySpec{Quantiles: []float64{0}}
		}, ErrDelayQuantile},
		{"quantile at 1", func(s *Scenario) {
			s.Delay = &DelaySpec{Quantiles: []float64{0.5, 1}}
		}, ErrDelayQuantile},
		{"quantile NaN", func(s *Scenario) {
			s.Delay = &DelaySpec{Quantiles: []float64{nan()}}
		}, ErrDelayQuantile},
		{"delay scheme outside scheme set", func(s *Scenario) {
			s.Delay = &DelaySpec{Schemes: []string{"twoHop"}}
		}, ErrDelayScheme},
		{"negative time-to-trigger", func(s *Scenario) {
			s.Assoc = &AssocSpec{TimeToTrigger: -1}
		}, ErrAssocField},
		{"negative margin", func(s *Scenario) {
			s.Assoc = &AssocSpec{HandoverMargin: -0.5}
		}, ErrAssocField},
	}
	for _, tc := range cases {
		s := valid()
		tc.mutate(s)
		err := s.Validate()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want sentinel %v", tc.name, err, tc.want)
		}
	}

	// Delay halves merge through the cell cache with their lambdas, so a
	// sharded delay scenario is valid.
	s := valid()
	s.Delay = &DelaySpec{}
	s.Shard = &ShardSpec{Index: 0, Count: 2}
	if err := s.Validate(); err != nil {
		t.Errorf("sharded delay scenario rejected: %v", err)
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

// A negative outage onset must be rejected through the fault spec path.
func TestValidateNegativeOutageStart(t *testing.T) {
	s := valid()
	s.Faults = &FaultSpec{BSOutage: 0.3, BSOutageStart: -5}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "outage start") {
		t.Errorf("negative bs_outage_start accepted: %v", err)
	}
}

// DelaySchemes defaults to the full scheme set; an explicit subset is
// returned verbatim; no Delay spec means no delay accounting.
func TestDelayAccessors(t *testing.T) {
	s := valid()
	if got := s.DelaySchemes(); got != nil {
		t.Errorf("DelaySchemes without spec = %v, want nil", got)
	}
	s.Delay = &DelaySpec{}
	if got := s.DelaySchemes(); !reflect.DeepEqual(got, s.Schemes) {
		t.Errorf("DelaySchemes with empty spec = %v, want %v", got, s.Schemes)
	}
	if got := s.DelayQuantiles(); !reflect.DeepEqual(got, delay.DefaultQuantiles) {
		t.Errorf("DelayQuantiles default = %v, want %v", got, delay.DefaultQuantiles)
	}
	s.Delay = &DelaySpec{Schemes: []string{"schemeB"}, Quantiles: []float64{0.9}}
	if got := s.DelaySchemes(); !reflect.DeepEqual(got, []string{"schemeB"}) {
		t.Errorf("DelaySchemes subset = %v", got)
	}
	if got := s.DelayQuantiles(); !reflect.DeepEqual(got, []float64{0.9}) {
		t.Errorf("DelayQuantiles explicit = %v", got)
	}
	if s.AssocConfig() != nil {
		t.Error("AssocConfig without spec should be nil")
	}
	s.Assoc = &AssocSpec{HandoverMargin: 0.1, Hysteresis: 0.05, TimeToTrigger: 4}
	cfg := s.AssocConfig()
	want := delay.AssocConfig{HandoverMargin: 0.1, Hysteresis: 0.05, TimeToTrigger: 4}
	if cfg == nil || *cfg != want {
		t.Errorf("AssocConfig = %v, want %v", cfg, want)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scenario with delay+assoc rejected: %v", err)
	}
}

// Delay/assoc fields must survive the canonical JSON round trip and
// project into the cell scope (they change what a cell computes).
func TestDelayRoundTripAndScope(t *testing.T) {
	s := valid()
	s.Delay = &DelaySpec{Schemes: []string{"schemeB"}, Quantiles: []float64{0.5, 0.9}}
	s.Assoc = &AssocSpec{HandoverMargin: 0.1, TimeToTrigger: 4}
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed.Delay, s.Delay) || !reflect.DeepEqual(parsed.Assoc, s.Assoc) {
		t.Errorf("round trip dropped delay/assoc: %+v %+v", parsed.Delay, parsed.Assoc)
	}

	plain := valid()
	withDelay, err := s.CellScope(1024)
	if err != nil {
		t.Fatal(err)
	}
	without, err := plain.CellScope(1024)
	if err != nil {
		t.Fatal(err)
	}
	if string(withDelay) == string(without) {
		t.Error("delay/assoc specs did not change the cell scope")
	}
	if !strings.Contains(string(withDelay), "association") {
		t.Errorf("cell scope missing association projection: %s", withDelay)
	}
}
