package delay

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{SrcQueue: 1, MobilityWait: 2, Forwarding: 3, Uplink: 4, Backbone: 5, Downlink: 6}
	if got := b.Total(); got != 21 {
		t.Errorf("Total = %g, want 21", got)
	}
	if got := (Breakdown{}).Total(); got != 0 {
		t.Errorf("zero Total = %g", got)
	}
}

// Below the P-squared warmup threshold the collector reports exact
// sample quantiles, so small cells are verifiable by hand.
func TestCollectorExactSmallSample(t *testing.T) {
	c, err := NewCollector(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{3, 1, 2} {
		c.Observe(Breakdown{Forwarding: v})
	}
	st := c.Stats()
	if st.Samples != 3 {
		t.Errorf("Samples = %g, want 3", st.Samples)
	}
	if st.Mean != 2 {
		t.Errorf("Mean = %g, want 2", st.Mean)
	}
	if len(st.Quantile) != 1 || st.Quantile[0] != 2 {
		t.Errorf("median = %v, want [2]", st.Quantile)
	}
	if st.Components.Forwarding != 2 {
		t.Errorf("component mean = %g, want 2", st.Components.Forwarding)
	}
}

func TestCollectorDefaultsAndUnroutable(t *testing.T) {
	c, err := NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	c.ObserveUnroutable()
	c.ObserveUnroutable()
	st := c.Stats()
	if st.Samples != 0 || st.Unroutable != 2 {
		t.Errorf("stats = %+v, want 0 samples / 2 unroutable", st)
	}
	if len(st.Quantile) != len(DefaultQuantiles) {
		t.Errorf("default quantile count = %d, want %d", len(st.Quantile), len(DefaultQuantiles))
	}
	if st.Mean != 0 {
		t.Errorf("empty Mean = %g, want 0", st.Mean)
	}
}

func TestCollectorRejectsBadQuantile(t *testing.T) {
	if _, err := NewCollector(0); err == nil {
		t.Error("probability 0 accepted")
	}
	if _, err := NewCollector(1); err == nil {
		t.Error("probability 1 accepted")
	}
}

// A Stats' flat form round-trips through StatsFromFlat, and summing
// flat forms field by field is Stats.Add: the cross-seed mean folds
// over flat forms exactly as over Stats.
func TestStatsFlatRoundTrip(t *testing.T) {
	cells := []Stats{
		{Samples: 10, Unroutable: 1, Mean: 4, Quantile: []float64{3, 8},
			Components: Breakdown{SrcQueue: 0.5, MobilityWait: 0.25, Forwarding: 0.125, Uplink: 1, Backbone: 1, Downlink: 2}},
		{Samples: 7, Mean: 1.0 / 3, Quantile: []float64{0.1, 0.7},
			Components: Breakdown{Uplink: 0.2, Downlink: 0.3}},
	}
	flat := cells[0].AppendFlat(nil)
	if len(flat) != FlatLen(2) {
		t.Fatalf("flat form has %d values, want %d", len(flat), FlatLen(2))
	}
	if got := StatsFromFlat(cells[1].AppendFlat(flat), 2); !reflect.DeepEqual(got, cells) {
		t.Errorf("round trip drifted:\n%+v\nwant\n%+v", got, cells)
	}
	var acc Stats
	sum := make([]float64, FlatLen(2))
	for _, c := range cells {
		if err := acc.Add(c); err != nil {
			t.Fatal(err)
		}
		for k, x := range c.AppendFlat(nil) {
			sum[k] += x
		}
	}
	if got := StatsFromFlat(sum, 2); !reflect.DeepEqual(got, []Stats{acc}) {
		t.Errorf("flat sum %+v, Add %+v", got[0], acc)
	}
}

func TestStatsAddShapeMismatch(t *testing.T) {
	a := Stats{Quantile: []float64{1}}
	b := Stats{Quantile: []float64{1, 2}}
	if err := a.Add(b); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Errorf("shape mismatch accepted: %v", err)
	}
}

func TestAssocConfigValidate(t *testing.T) {
	good := AssocConfig{HandoverMargin: 0.1, Hysteresis: 0.05, TimeToTrigger: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []AssocConfig{
		{HandoverMargin: -1},
		{Hysteresis: -0.1},
		{TimeToTrigger: -2},
		{HandoverMargin: math.NaN()},
		{Hysteresis: math.NaN()},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
}

func TestReassocPenalty(t *testing.T) {
	cfg := AssocConfig{HandoverMargin: 0.5, Hysteresis: 0.5, TimeToTrigger: 10}
	if got := cfg.ReassocPenalty(); got != 20 {
		t.Errorf("penalty = %g, want 20", got)
	}
	if got := (AssocConfig{}).ReassocPenalty(); got != 0 {
		t.Errorf("zero-config penalty = %g, want 0", got)
	}
}
