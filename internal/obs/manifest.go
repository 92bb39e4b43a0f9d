package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"hybridcap/internal/blob"
)

// ManifestSchema is the current manifest file schema version.
const ManifestSchema = 1

// PhaseTally is the cell-outcome tally of one serially executed phase
// (typically one sweep): how many grid cells ran, how many succeeded,
// and how the failures split across the engine's failure phases. Under
// fault injection the split says whether instances failed to build
// (construct) or built degraded and failed evaluation (evaluate).
type PhaseTally struct {
	// Phase names the phase, e.g. "sweep strong-BS".
	Phase string `json:"phase"`
	// Cells is the number of evaluated grid cells.
	Cells int `json:"cells"`
	// OK is the number of cells that succeeded.
	OK int `json:"ok"`
	// ConstructFailed counts cells whose instance construction failed.
	ConstructFailed int `json:"construct_failed"`
	// EvaluateFailed counts cells whose evaluation failed (including
	// panics converted to errors).
	EvaluateFailed int `json:"evaluate_failed"`
	// Canceled counts cells that were never dispatched because the
	// run's context ended first (per-run deadline, client abort, daemon
	// shutdown). Omitted from the JSON when zero, so uncanceled
	// manifests are unchanged byte for byte.
	Canceled int `json:"canceled,omitempty"`
	// Cached counts successful cells whose value was replayed from the
	// persistent cell cache instead of evaluated (a subset of OK).
	// Omitted when zero, so cold-run manifests are unchanged byte for
	// byte.
	Cached int `json:"cached,omitempty"`
}

// CacheDelta is the mobility kernel-cache activity over a run.
type CacheDelta struct {
	// Hits counts lookups that found an existing entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that created (and built) the entry.
	Misses uint64 `json:"misses"`
	// Bypasses counts non-cacheable kernel constructions.
	Bypasses uint64 `json:"bypasses,omitempty"`
}

// CellRange is one half-open range [Start, End) of global grid cell
// indices (grid order: point varying slowest).
type CellRange struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// ShardInfo records which shard of a distributed sweep a run executed.
type ShardInfo struct {
	// Index is the shard's position, in [0, Count).
	Index int `json:"index"`
	// Count is the total number of shards the grid was split into.
	Count int `json:"count"`
}

// Manifest is the run manifest written alongside a report: everything
// needed to say what ran and what came out, without re-reading logs.
// The encoding is a fixed tree of structs and slices (no maps), so
// Marshal -> blob.Decode -> Marshal is byte-identical.
type Manifest struct {
	// Schema is the manifest schema version.
	Schema int `json:"schema"`
	// Name identifies the run (the scenario or experiment id).
	Name string `json:"name"`
	// ScenarioSHA256 is the hex SHA-256 of the scenario's canonical
	// JSON, when the run executed a declarative scenario.
	ScenarioSHA256 string `json:"scenario_sha256,omitempty"`
	// Sizes is the resolved size grid of the sweep.
	Sizes []int `json:"sizes,omitempty"`
	// Seeds is the number of seeds per grid point.
	Seeds int `json:"seeds"`
	// Workers is the engine pool size the run used. It does not affect
	// results (the engine is byte-identical for every worker count);
	// it is recorded so perf numbers can be attributed.
	Workers int `json:"workers"`
	// Faults describes the injected fault plan, empty when none.
	Faults string `json:"faults,omitempty"`
	// DelaySchemes lists the schemes the run accounted delay for, in
	// evaluation order; empty when the scenario requested no delay
	// accounting (the field is additive: pre-delay manifests are
	// byte-identical).
	DelaySchemes []string `json:"delay_schemes,omitempty"`
	// GridCells is the total cell count of the full (sizes x seeds)
	// grid, whether or not this run covered all of it.
	GridCells int `json:"grid_cells,omitempty"`
	// Coverage lists the global cell ranges this run evaluated, in grid
	// order: the whole grid as one span for unsharded runs, one block
	// per shard otherwise. The blocks of a k-way split are an exact
	// disjoint cover of [0, GridCells).
	Coverage []CellRange `json:"coverage,omitempty"`
	// Shard identifies the shard a partial run executed; nil for
	// unsharded runs.
	Shard *ShardInfo `json:"shard,omitempty"`
	// Cache is the kernel-cache activity over the run.
	Cache CacheDelta `json:"cache"`
	// Phases are the per-phase cell outcome tallies in execution order.
	Phases []PhaseTally `json:"phases"`
}

// Total sums the phase tallies.
func (m *Manifest) Total() PhaseTally {
	t := PhaseTally{Phase: "total"}
	for _, p := range m.Phases {
		t.Cells += p.Cells
		t.OK += p.OK
		t.ConstructFailed += p.ConstructFailed
		t.EvaluateFailed += p.EvaluateFailed
		t.Canceled += p.Canceled
		t.Cached += p.Cached
	}
	return t
}

// Marshal renders the manifest as canonical indented JSON with a
// trailing newline.
func (m *Manifest) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: marshal manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// WriteFile writes the manifest to path atomically (blob.WriteFile),
// creating parent directories.
func (m *Manifest) WriteFile(path string) error {
	data, err := m.Marshal()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return blob.WriteFile(path, data)
}

// WriteMetricsFile dumps the runtime's registry in text exposition
// format to path, creating parent directories.
func (rt *Runtime) WriteMetricsFile(path string) error {
	return writeFileMkdir(path, []byte(rt.Metrics.Text()))
}

// WriteTraceFile renders the runtime's span tree as JSON to path,
// creating parent directories. The root span is left as-is; end it
// first for a non-zero run duration.
func (rt *Runtime) WriteTraceFile(path string) error {
	var buf bytes.Buffer
	if err := rt.Root.WriteJSON(&buf); err != nil {
		return err
	}
	return writeFileMkdir(path, buf.Bytes())
}

func writeFileMkdir(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("obs: %w", err)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}
