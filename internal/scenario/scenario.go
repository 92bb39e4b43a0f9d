// Package scenario turns experiments into data: a Scenario is a
// declarative description of one operating regime of the paper's
// parameter space — base scaling exponents, the (size, seed) grid to
// sweep, the communication schemes to evaluate, BS placement, an
// optional fault plan, and the measurement requests — that the grid
// engine can execute without any bespoke Go loop. New regimes are a
// JSON file, not a recompile: `capsim -scenario file.json` loads,
// validates and runs one.
//
// The JSON encoding is deterministic: a Scenario is a fixed tree of
// structs and slices (no maps), so Marshal -> Parse -> Marshal is
// byte-identical, and scenario files can be diffed and golden-tested.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"hybridcap/internal/blob"
	"hybridcap/internal/delay"
	"hybridcap/internal/faults"
	"hybridcap/internal/network"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
)

// Exponents are the scaling exponents (alpha, K, phi, M, R) of the
// paper's parameter space, without the concrete network size: the
// scenario's size grid supplies n.
type Exponents struct {
	// Alpha sets the network extension f(n) = n^alpha.
	Alpha float64 `json:"alpha"`
	// K sets the BS count k = n^K; negative means no infrastructure.
	K float64 `json:"k"`
	// Phi sets the aggregate per-BS backbone bandwidth n^phi.
	Phi float64 `json:"phi"`
	// M sets the home-point cluster count m = n^M.
	M float64 `json:"m"`
	// R sets the cluster radius n^-R.
	R float64 `json:"r"`
}

// Params instantiates the exponents at a concrete network size.
func (e Exponents) Params(n int) scaling.Params {
	return scaling.Params{N: n, Alpha: e.Alpha, K: e.K, Phi: e.Phi, M: e.M, R: e.R}
}

// FaultSpec mirrors faults.Config with stable JSON names, so scenario
// files can declare infrastructure outages next to the regime they
// stress.
type FaultSpec struct {
	Seed            uint64  `json:"seed,omitempty"`
	BSOutage        float64 `json:"bs_outage,omitempty"`
	BSOutageCount   int     `json:"bs_outage_count,omitempty"`
	BSOutageStart   int     `json:"bs_outage_start,omitempty"`
	EdgeOutage      float64 `json:"edge_outage,omitempty"`
	EdgeDerating    float64 `json:"edge_derating,omitempty"`
	WirelessErasure float64 `json:"erasure,omitempty"`
}

// Config converts the spec to a faults.Config.
func (f FaultSpec) Config() faults.Config {
	return faults.Config{
		Seed:               f.Seed,
		BSOutageFraction:   f.BSOutage,
		BSOutageCount:      f.BSOutageCount,
		BSOutageStart:      f.BSOutageStart,
		EdgeOutageFraction: f.EdgeOutage,
		EdgeDerating:       f.EdgeDerating,
		WirelessErasure:    f.WirelessErasure,
	}
}

// Shard-spec validation sentinels, surfaced by Validate and CheckGrid
// so callers (CLI flag parsing, the server's submission handler) can
// classify malformed specs without string matching.
var (
	// ErrShardCount marks a shard count below 1.
	ErrShardCount = errors.New("shard count must be at least 1")
	// ErrShardIndex marks a shard index outside [0, count).
	ErrShardIndex = errors.New("shard index outside [0, count)")
	// ErrShardCells marks a shard count exceeding the grid's total cell
	// count (some shards would own no cells).
	ErrShardCells = errors.New("shard count exceeds grid cells")
)

// Delay/association validation sentinels, surfaced by Validate so
// callers can classify malformed measurement requests without string
// matching.
var (
	// ErrDelayQuantile marks a requested delay quantile outside (0, 1).
	ErrDelayQuantile = errors.New("delay quantile outside (0, 1)")
	// ErrDelayScheme marks a delay scheme that is not in the scenario's
	// scheme set (delay rides the same evaluations as throughput).
	ErrDelayScheme = errors.New("delay scheme not in the scenario's scheme set")
	// ErrAssocField marks an out-of-range association-dynamics knob.
	ErrAssocField = errors.New("invalid association field")
)

// DelaySpec requests per-scheme delay accounting for the sweep: every
// named scheme's analytic delay model runs over the same instances the
// lambda sweep evaluates, and the report gains per-point mean and
// quantile delay rows.
type DelaySpec struct {
	// Schemes names the schemes to account delay for; empty selects the
	// scenario's full scheme set. Every name must appear in Schemes —
	// delay is a second measurement of the declared schemes, not a way
	// to smuggle extra ones in.
	Schemes []string `json:"schemes,omitempty"`
	// Quantiles lists the total-delay quantiles to estimate, each
	// strictly in (0, 1); empty selects delay.DefaultQuantiles
	// (P50/P99).
	Quantiles []float64 `json:"quantiles,omitempty"`
}

// AssocSpec mirrors delay.AssocConfig with stable JSON names: the BS
// association-dynamics knobs (handover margin, hysteresis,
// time-to-trigger) that turn a fault-plan outage into a realistic
// re-association delay spike instead of an instant re-home.
type AssocSpec struct {
	HandoverMargin float64 `json:"handover_margin,omitempty"`
	Hysteresis     float64 `json:"hysteresis,omitempty"`
	TimeToTrigger  int     `json:"time_to_trigger,omitempty"`
}

// Config converts the spec to a delay.AssocConfig.
func (a AssocSpec) Config() delay.AssocConfig {
	return delay.AssocConfig{
		HandoverMargin: a.HandoverMargin,
		Hysteresis:     a.Hysteresis,
		TimeToTrigger:  a.TimeToTrigger,
	}
}

// ShardSpec selects one contiguous block of the sweep's (size, seed)
// grid: shard Index of Count owns the global cells
// [Index*n/Count, (Index+1)*n/Count) in grid order. Cells keep their
// global coordinates and pre-derived seeds, so the Count shards are an
// exact disjoint cover and each cell a shard stores in the cell cache is
// the one an unsharded run would compute. The spec is grid-only: it
// shapes which cells this process evaluates, never what any cell
// computes, so cell cache keys are shard-blind.
type ShardSpec struct {
	// Index is this shard's position, in [0, Count).
	Index int `json:"index"`
	// Count is the total number of shards the grid is split into.
	Count int `json:"count"`
}

// Validate checks the spec's internal consistency (the grid-independent
// half; CheckGrid covers the rest once the cell count is known).
func (sp *ShardSpec) Validate(name string) error {
	if sp.Count < 1 {
		return fmt.Errorf("scenario %s: shard %d/%d: %w", name, sp.Index, sp.Count, ErrShardCount)
	}
	if sp.Index < 0 || sp.Index >= sp.Count {
		return fmt.Errorf("scenario %s: shard %d/%d: %w", name, sp.Index, sp.Count, ErrShardIndex)
	}
	return nil
}

// CheckGrid checks the spec against the resolved grid's total cell
// count: a count larger than the grid would leave some shards empty,
// which is always an operator error.
func (sp *ShardSpec) CheckGrid(name string, cells int) error {
	if sp.Count > cells {
		return fmt.Errorf("scenario %s: shard %d/%d: %d > %d grid cells: %w", name, sp.Index, sp.Count, sp.Count, cells, ErrShardCells)
	}
	return nil
}

// Scenario is one declarative experiment: a parameter regime plus the
// grid, schemes and measurements that evaluate it.
type Scenario struct {
	// Name identifies the scenario; it also salts the sweep's seed
	// derivation, so renaming a scenario resamples its instances.
	Name string `json:"name"`
	// Description says what the scenario demonstrates.
	Description string `json:"description,omitempty"`
	// Base holds the scaling exponents shared by every grid point.
	Base Exponents `json:"base"`
	// Sizes is the sweep of network sizes n.
	Sizes []int `json:"sizes"`
	// QuickSizes, if set, replaces Sizes under quick options (smoke
	// runs and unit tests).
	QuickSizes []int `json:"quick_sizes,omitempty"`
	// Seeds is the number of random seeds averaged per point; zero
	// defers to the executing options' default.
	Seeds int `json:"seeds,omitempty"`
	// Schemes names the communication schemes to evaluate; the point
	// scores the best of them (capacity is achieved by the best
	// scheme). Names are routing.Names().
	Schemes []string `json:"schemes"`
	// Placement selects BS deployment: "matched" (default), "uniform",
	// or "grid".
	Placement string `json:"placement,omitempty"`
	// Faults optionally injects a deterministic fault plan into every
	// instance of the sweep.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Delay optionally requests per-scheme delay accounting alongside
	// the lambda sweep.
	Delay *DelaySpec `json:"delay,omitempty"`
	// Assoc optionally enables BS association dynamics: the packet
	// simulator replaces instant re-homing with margin/hysteresis/TTT
	// handovers, and the analytic infrastructure delay models charge the
	// matching re-association penalty under an outage.
	Assoc *AssocSpec `json:"association,omitempty"`
	// Fit requests a power-law fit of the measured lambda series, for
	// comparison against the regime's theoretical capacity order.
	Fit bool `json:"fit,omitempty"`
	// Shard, if set, restricts the run to one contiguous block of the
	// (size, seed) grid for distributed sweeps; nil runs the whole grid.
	// Shard identity is excluded from cell cache keys (a cell computes
	// the same value whichever shard evaluates it, so an unsharded run
	// replays it) and from the base scenario hash manifests record.
	Shard *ShardSpec `json:"shard,omitempty"`
}

// SizesFor selects the scenario's size grid: QuickSizes under quick
// mode when present, Sizes otherwise.
func (s *Scenario) SizesFor(quick bool) []int {
	if quick && len(s.QuickSizes) > 0 {
		return s.QuickSizes
	}
	return s.Sizes
}

// PlacementScheme resolves the declared BS placement.
func (s *Scenario) PlacementScheme() (network.BSPlacement, error) {
	return network.ParsePlacement(s.Placement)
}

// FaultConfig returns the declared fault plan config, or nil.
func (s *Scenario) FaultConfig() *faults.Config {
	if s.Faults == nil {
		return nil
	}
	cfg := s.Faults.Config()
	return &cfg
}

// DelaySchemes resolves the delay-accounting scheme set: the explicit
// request, or the scenario's full scheme set. Nil when no delay
// accounting is requested.
func (s *Scenario) DelaySchemes() []string {
	if s.Delay == nil {
		return nil
	}
	if len(s.Delay.Schemes) > 0 {
		return s.Delay.Schemes
	}
	return s.Schemes
}

// DelayQuantiles resolves the requested delay quantiles, defaulting to
// delay.DefaultQuantiles.
func (s *Scenario) DelayQuantiles() []float64 {
	if s.Delay != nil && len(s.Delay.Quantiles) > 0 {
		return s.Delay.Quantiles
	}
	return delay.DefaultQuantiles
}

// AssocConfig returns the declared association-dynamics config, or nil.
func (s *Scenario) AssocConfig() *delay.AssocConfig {
	if s.Assoc == nil {
		return nil
	}
	cfg := s.Assoc.Config()
	return &cfg
}

// Validate checks the scenario against the paper's model: the grid must
// be well-formed, every scheme and the placement must resolve, the
// fault plan must be in range, and every size must instantiate a valid
// parameter point (scaling.Params.Validate, so out-of-model regimes
// surface the scaling sentinel errors like scaling.ErrOverlap).
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if len(s.Sizes) == 0 {
		return fmt.Errorf("scenario %s: sizes are required", s.Name)
	}
	if err := validSizes(s.Name, "sizes", s.Sizes); err != nil {
		return err
	}
	if err := validSizes(s.Name, "quick_sizes", s.QuickSizes); err != nil {
		return err
	}
	if s.Seeds < 0 {
		return fmt.Errorf("scenario %s: negative seeds %d", s.Name, s.Seeds)
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("scenario %s: at least one scheme is required", s.Name)
	}
	for _, name := range s.Schemes {
		if !routing.KnownScheme(name) {
			return fmt.Errorf("scenario %s: unknown scheme %q (want one of %v)", s.Name, name, routing.Names())
		}
	}
	if _, err := s.PlacementScheme(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Faults != nil {
		if err := s.Faults.Config().Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.Delay != nil {
		for _, name := range s.Delay.Schemes {
			found := false
			for _, have := range s.Schemes {
				if have == name {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("scenario %s: delay scheme %q: %w", s.Name, name, ErrDelayScheme)
			}
		}
		for _, q := range s.Delay.Quantiles {
			if !(q > 0 && q < 1) {
				return fmt.Errorf("scenario %s: quantile %v: %w", s.Name, q, ErrDelayQuantile)
			}
		}
	}
	if s.Assoc != nil {
		if err := s.Assoc.Config().Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w: %w", s.Name, ErrAssocField, err)
		}
	}
	for _, n := range append(append([]int(nil), s.Sizes...), s.QuickSizes...) {
		if err := s.Base.Params(n).Validate(); err != nil {
			return fmt.Errorf("scenario %s: at n=%d: %w", s.Name, n, err)
		}
	}
	if s.Shard != nil {
		if err := s.Shard.Validate(s.Name); err != nil {
			return err
		}
		// The declared grid bounds the shard count statically when the
		// seed count is declared too; the executing run re-checks against
		// its resolved grid (quick sizes, defaulted seeds) via CheckGrid.
		if s.Seeds > 0 {
			if err := s.Shard.CheckGrid(s.Name, len(s.Sizes)*s.Seeds); err != nil {
				return err
			}
		}
	}
	return nil
}

func validSizes(name, field string, sizes []int) error {
	for i, n := range sizes {
		if n < 2 {
			return fmt.Errorf("scenario %s: %s[%d] = %d below the minimum network size 2", name, field, i, n)
		}
		if i > 0 && n <= sizes[i-1] {
			return fmt.Errorf("scenario %s: %s must be strictly increasing (got %d after %d)", name, field, n, sizes[i-1])
		}
	}
	return nil
}

// Marshal renders the scenario as canonical indented JSON with a
// trailing newline. The output is deterministic: re-marshalling a
// parsed scenario reproduces the input byte for byte.
func (s *Scenario) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return append(data, '\n'), nil
}

// SHA256 returns the hex SHA-256 of the scenario's canonical JSON
// encoding: the content address of the run. Because Marshal is
// deterministic, two submissions describing the same regime hash
// identically, which is what makes memoized serving sound.
func (s *Scenario) SHA256() (string, error) {
	data, err := s.Marshal()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// WithoutShard returns a shallow copy of the scenario with the shard
// spec cleared: the canonical description of the full sweep every shard
// of it shares.
func (s *Scenario) WithoutShard() *Scenario {
	base := *s
	base.Shard = nil
	return &base
}

// BaseSHA256 returns the hex SHA-256 of the shard-stripped canonical
// encoding: the content address of the underlying sweep, identical for
// every shard of it (and equal to SHA256 when unsharded). Manifests
// record it, so a shard's manifest names the sweep it is a block of.
func (s *Scenario) BaseSHA256() (string, error) {
	return s.WithoutShard().SHA256()
}

// cellScope is the projection of a scenario onto the dimensions one
// grid cell's value depends on: the name (which salts the sweep's seed
// derivation), the scaling exponents instantiated at the cell's size,
// the scheme set scoring the instance, the BS placement, and the fault
// plan. Deliberately absent: the size grid, seed count, description and
// fit request — editing those must not invalidate untouched cells.
type cellScope struct {
	Name      string     `json:"name"`
	Base      Exponents  `json:"base"`
	N         int        `json:"n"`
	Schemes   []string   `json:"schemes"`
	Placement string     `json:"placement,omitempty"`
	Faults    *FaultSpec `json:"faults,omitempty"`
	// Delay and Assoc shape a cell's delay half, which its entry stores
	// alongside lambda, so toggling or editing delay accounting
	// recomputes. Both are omitempty: scenarios without them keep their
	// existing byte-identical scopes.
	Delay *DelaySpec `json:"delay,omitempty"`
	Assoc *AssocSpec `json:"association,omitempty"`
}

// gridOnlyFields declares the Scenario fields that only shape the
// sweep's grid or presentation: editing them must NOT invalidate
// previously computed cells, so they are deliberately excluded from
// cellScope. The cachekey analyzer checks that every Scenario field is
// either projected into cellScope or named here — a new field fails the
// lint gate until its cache-invalidation semantics are declared.
var gridOnlyFields = []string{
	"Description", // presentation only
	"Sizes",       // grid shape: each cell keys on its own n
	"QuickSizes",  // grid shape under quick options
	"Seeds",       // per-cell seed count: each seed keys separately
	"Fit",         // post-sweep analysis over cached values
	"Shard",       // grid partition: cells are shard-blind by design
}

// CellScope renders the canonical cache scope of one grid cell at
// network size n: deterministic JSON (fixed struct tree, no maps) over
// exactly the scenario dimensions that determine the cell's value, so
// two scenarios that differ only in grid shape or presentation share
// their cells.
func (s *Scenario) CellScope(n int) ([]byte, error) {
	data, err := json.MarshalIndent(cellScope{
		Name:      s.Name,
		Base:      s.Base,
		N:         n,
		Schemes:   s.Schemes,
		Placement: s.Placement,
		Faults:    s.Faults,
		Delay:     s.Delay,
		Assoc:     s.Assoc,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: cell scope: %w", err)
	}
	return append(data, '\n'), nil
}

// Parse decodes and validates a scenario. Unknown fields and bytes
// after the JSON value are rejected (blob.Decode), so a typoed knob or
// a torn submission fails loudly instead of silently running the
// default.
func Parse(data []byte) (*Scenario, error) {
	s := &Scenario{}
	if err := blob.Decode(data, s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
