package scenario

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"hybridcap/internal/faults"
	"hybridcap/internal/network"
	"hybridcap/internal/scaling"
)

func valid() *Scenario {
	return &Scenario{
		Name:        "strong-BS",
		Description: "strong mobility with infrastructure",
		Base:        Exponents{Alpha: 0.3, K: 0.8, Phi: 1, M: 1},
		Sizes:       []int{1024, 2048, 4096},
		QuickSizes:  []int{512, 1024},
		Seeds:       3,
		Schemes:     []string{"schemeA", "schemeB"},
		Placement:   "grid",
		Fit:         true,
	}
}

// Marshal -> Parse -> Marshal must be byte-identical: the spec is a
// fixed struct tree with no maps, so the encoding is deterministic and
// scenario files can be golden-tested.
func TestJSONRoundTripDeterminism(t *testing.T) {
	scenarios := []*Scenario{
		valid(),
		{
			Name:    "faulted",
			Base:    Exponents{Alpha: 0.4, K: 0.8, Phi: 1, M: 1},
			Sizes:   []int{512},
			Schemes: []string{"schemeB"},
			Faults:  &FaultSpec{Seed: 99, BSOutage: 0.4, EdgeOutage: 0.2},
		},
	}
	for _, sc := range scenarios {
		first, err := sc.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", sc.Name, err)
		}
		parsed, err := Parse(first)
		if err != nil {
			t.Fatalf("%s: parse: %v", sc.Name, err)
		}
		second, err := parsed.Marshal()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", sc.Name, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: round trip drifted:\n%s\nvs\n%s", sc.Name, first, second)
		}
		if !bytes.HasSuffix(first, []byte("\n")) {
			t.Errorf("%s: marshal output missing trailing newline", sc.Name)
		}
	}
}

// Out-of-model regimes must surface the scaling sentinel errors, so a
// scenario author sees the same diagnostics as a Params user.
func TestValidateScalingSentinels(t *testing.T) {
	cases := []struct {
		mutate func(*Scenario)
		want   error
	}{
		{func(s *Scenario) { s.Base.Alpha = 1.5 }, scaling.ErrBadAlpha},
		{func(s *Scenario) { s.Base.K = 1.2 }, scaling.ErrBadK},
		{func(s *Scenario) { s.Base.M = -0.1 }, scaling.ErrBadM},
		{func(s *Scenario) { s.Base.R = 0.5 }, scaling.ErrBadR},
		{func(s *Scenario) { s.Base.M = 0.8; s.Base.R = 0.1 }, scaling.ErrOverlap},
		{func(s *Scenario) { s.Base.M = 0.5; s.Base.R = 0.3; s.Base.K = 0.4 }, scaling.ErrBSPerClus},
	}
	for i, tc := range cases {
		s := valid()
		tc.mutate(s)
		err := s.Validate()
		if !errors.Is(err, tc.want) {
			t.Errorf("case %d: error %v, want sentinel %v", i, err, tc.want)
		}
		if err != nil && !strings.Contains(err.Error(), "at n=") {
			t.Errorf("case %d: error %v does not say which size broke", i, err)
		}
	}
}

func TestValidateShape(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "name is required"},
		{"no sizes", func(s *Scenario) { s.Sizes = nil }, "sizes are required"},
		{"tiny size", func(s *Scenario) { s.Sizes = []int{1, 64} }, "minimum network size"},
		{"unsorted sizes", func(s *Scenario) { s.Sizes = []int{2048, 1024} }, "strictly increasing"},
		{"unsorted quick", func(s *Scenario) { s.QuickSizes = []int{512, 512} }, "strictly increasing"},
		{"negative seeds", func(s *Scenario) { s.Seeds = -1 }, "negative seeds"},
		{"no schemes", func(s *Scenario) { s.Schemes = nil }, "at least one scheme"},
		{"bad scheme", func(s *Scenario) { s.Schemes = []string{"schemeZ"} }, "unknown scheme"},
		{"bad placement", func(s *Scenario) { s.Placement = "ring" }, "unknown BS placement"},
		{"bad faults", func(s *Scenario) { s.Faults = &FaultSpec{BSOutage: 1.5} }, "outside [0, 1]"},
	}
	for _, tc := range cases {
		s := valid()
		tc.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := valid().Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

// Parse must reject unknown fields so typoed knobs fail loudly.
func TestParseRejectsUnknownFields(t *testing.T) {
	data := []byte(`{"name":"x","base":{"alpha":0.3,"k":-1,"phi":0,"m":1,"r":0},"sizes":[512],"schemes":["schemeA"],"seedz":7}`)
	if _, err := Parse(data); err == nil || !strings.Contains(err.Error(), "seedz") {
		t.Errorf("unknown field accepted: %v", err)
	}
}

// A complete scenario followed by a torn tail must not parse: the
// daemon reads submissions through Parse, and a body is one value.
func TestParseRejectsTrailingBytes(t *testing.T) {
	data, err := valid().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(data); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	torn := append(data, []byte(`{"name": 9, garbage`)...)
	if _, err := Parse(torn); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Errorf("torn tail accepted: %v", err)
	}
}

func TestSizesFor(t *testing.T) {
	s := valid()
	if got := s.SizesFor(false); len(got) != 3 {
		t.Errorf("full sizes %v", got)
	}
	if got := s.SizesFor(true); len(got) != 2 || got[0] != 512 {
		t.Errorf("quick sizes %v", got)
	}
	s.QuickSizes = nil
	if got := s.SizesFor(true); len(got) != 3 {
		t.Errorf("quick without quick_sizes should fall back to sizes, got %v", got)
	}
}

func TestAccessors(t *testing.T) {
	s := valid()
	pl, err := s.PlacementScheme()
	if err != nil || pl != network.Grid {
		t.Errorf("placement %v, %v", pl, err)
	}
	s.Placement = ""
	pl, err = s.PlacementScheme()
	if err != nil || pl != network.Matched {
		t.Errorf("default placement %v, %v", pl, err)
	}
	if s.FaultConfig() != nil {
		t.Error("nil faults should yield nil config")
	}
	s.Faults = &FaultSpec{Seed: 5, BSOutage: 0.25, WirelessErasure: 0.1}
	fc := s.FaultConfig()
	want := faults.Config{Seed: 5, BSOutageFraction: 0.25, WirelessErasure: 0.1}
	if fc == nil || *fc != want {
		t.Errorf("fault config %+v, want %+v", fc, want)
	}
	p := s.Base.Params(4096)
	if p.N != 4096 || p.Alpha != 0.3 || p.K != 0.8 {
		t.Errorf("params %+v", p)
	}
}

// Shard validation: malformed specs surface the sentinel errors, valid
// ones pass, and the runtime CheckGrid catches counts larger than the
// resolved grid.
func TestShardValidation(t *testing.T) {
	cases := []struct {
		name  string
		shard ShardSpec
		want  error
	}{
		{"count zero", ShardSpec{Index: 0, Count: 0}, ErrShardCount},
		{"count negative", ShardSpec{Index: 0, Count: -2}, ErrShardCount},
		{"index at count", ShardSpec{Index: 3, Count: 3}, ErrShardIndex},
		{"index past count", ShardSpec{Index: 7, Count: 3}, ErrShardIndex},
		{"index negative", ShardSpec{Index: -1, Count: 3}, ErrShardIndex},
		{"count past cells", ShardSpec{Index: 0, Count: 100}, ErrShardCells},
		{"valid first", ShardSpec{Index: 0, Count: 3}, nil},
		{"valid last", ShardSpec{Index: 2, Count: 3}, nil},
		{"valid whole grid", ShardSpec{Index: 0, Count: 1}, nil},
	}
	for _, tc := range cases {
		sc := valid() // 3 sizes x 3 seeds = 9 cells
		sc.Shard = &tc.shard
		err := sc.Validate()
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// A shard count static validation cannot bound (seeds deferred to the
// executing options) must still be caught by CheckGrid at runtime.
func TestShardCheckGridDeferredSeeds(t *testing.T) {
	sc := valid()
	sc.Seeds = 0 // resolved by the executing options
	sc.Shard = &ShardSpec{Index: 0, Count: 100}
	if err := sc.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil (cells unknown statically)", err)
	}
	if err := sc.Shard.CheckGrid(sc.Name, 9); err == nil || !errors.Is(err, ErrShardCells) {
		t.Fatalf("CheckGrid = %v, want ErrShardCells", err)
	}
}

// The shard spec must round-trip through the canonical encoding, and
// the base hash must be shard-blind: every shard of a sweep shares the
// unsharded scenario's content address, while the full hash still
// distinguishes them (the server content-addresses runs by it).
func TestShardHashing(t *testing.T) {
	unsharded := valid()
	full, err := unsharded.SHA256()
	if err != nil {
		t.Fatal(err)
	}
	sharded := valid()
	sharded.Shard = &ShardSpec{Index: 1, Count: 3}
	data, err := sharded.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(data)
	if err != nil {
		t.Fatalf("parse sharded: %v", err)
	}
	if parsed.Shard == nil || *parsed.Shard != *sharded.Shard {
		t.Fatalf("shard spec did not round-trip: %+v", parsed.Shard)
	}
	base, err := sharded.BaseSHA256()
	if err != nil {
		t.Fatal(err)
	}
	if base != full {
		t.Errorf("BaseSHA256 %s != unsharded SHA256 %s", base, full)
	}
	shardedFull, err := sharded.SHA256()
	if err != nil {
		t.Fatal(err)
	}
	if shardedFull == full {
		t.Error("sharded and unsharded scenarios share a full hash")
	}
	if sharded.Shard == nil {
		t.Fatal("WithoutShard mutated the receiver")
	}
}
