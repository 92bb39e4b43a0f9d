// Package cells defines the per-cell artifact of a sharded sweep: the
// raw (size, seed) grid-cell outcomes a shard evaluated, written next
// to its report so shard-merge tooling can reassemble the full sweep
// byte-identically to an unsharded run. Like scenarios and manifests,
// the encoding is a fixed tree of structs and slices (no maps), so
// Marshal -> Parse -> Marshal is byte-identical and the files can be
// diffed and golden-tested.
package cells

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"hybridcap/internal/blob"
)

// Schema is the current cells file schema version.
const Schema = 1

// Cell is one evaluated grid cell, identified by its global grid index
// (point varying slowest), so any partition of the grid can be
// reassembled in grid order.
type Cell struct {
	// Index is the global cell index, in [0, GridCells).
	Index int `json:"index"`
	// N is the network size of the cell's grid point.
	N int `json:"n"`
	// Seed is the cell's pre-derived rng seed — a function of the
	// scenario and the global coordinates only, identical whichever
	// shard evaluates the cell.
	Seed uint64 `json:"seed"`
	// Value is the measured per-node throughput, meaningful when Err is
	// empty.
	Value float64 `json:"value"`
	// Err is the cell's failure, empty on success.
	Err string `json:"err,omitempty"`
}

// File is the cells artifact of one (possibly partial) sweep run.
type File struct {
	// Schema is the file schema version.
	Schema int `json:"schema"`
	// Name is the scenario name.
	Name string `json:"name"`
	// ScenarioSHA256 is the hex SHA-256 of Scenario: the shard-blind
	// content address of the sweep, matched across shards before any
	// merge.
	ScenarioSHA256 string `json:"scenario_sha256"`
	// Scenario is the canonical JSON of the shard-stripped scenario, so
	// a merged run can be reproduced (and re-verified) from the artifact
	// alone.
	Scenario string `json:"scenario"`
	// Sizes is the resolved size grid of the sweep.
	Sizes []int `json:"sizes"`
	// Seeds is the number of seeds per grid point.
	Seeds int `json:"seeds"`
	// GridCells is the full grid's cell count (len(Sizes) * Seeds).
	GridCells int `json:"grid_cells"`
	// Cells are the evaluated cells in ascending global index order —
	// the run's exact coverage.
	Cells []Cell `json:"cells"`
}

// Validate checks the file's internal consistency: schema, hash,
// grid arithmetic, and strictly ascending in-range cell indices.
func (f *File) Validate() error {
	if f.Schema != Schema {
		return fmt.Errorf("cells: schema %d, want %d", f.Schema, Schema)
	}
	sum := sha256.Sum256([]byte(f.Scenario))
	if got := hex.EncodeToString(sum[:]); got != f.ScenarioSHA256 {
		return fmt.Errorf("cells: scenario hash %s does not match embedded scenario (%s)", f.ScenarioSHA256, got)
	}
	if f.GridCells != len(f.Sizes)*f.Seeds {
		return fmt.Errorf("cells: grid_cells %d != %d sizes x %d seeds", f.GridCells, len(f.Sizes), f.Seeds)
	}
	for i, c := range f.Cells {
		if c.Index < 0 || c.Index >= f.GridCells {
			return fmt.Errorf("cells: cell %d: index %d outside [0,%d)", i, c.Index, f.GridCells)
		}
		if i > 0 && c.Index <= f.Cells[i-1].Index {
			return fmt.Errorf("cells: cell indices not strictly ascending (%d after %d)", c.Index, f.Cells[i-1].Index)
		}
		if want := f.Sizes[c.Index/f.Seeds]; c.N != want {
			return fmt.Errorf("cells: cell %d: n=%d, want %d for index %d", i, c.N, want, c.Index)
		}
	}
	return nil
}

// Sort orders the cells by ascending global index (the canonical file
// order).
func (f *File) Sort() {
	sort.Slice(f.Cells, func(i, j int) bool { return f.Cells[i].Index < f.Cells[j].Index })
}

// Marshal renders the file as canonical indented JSON with a trailing
// newline.
func (f *File) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("cells: marshal: %w", err)
	}
	return append(data, '\n'), nil
}

// Parse decodes and validates a cells file, rejecting unknown fields
// and bytes after the JSON value (blob.Decode) so schema drift and torn
// files fail loudly.
func Parse(data []byte) (*File, error) {
	f := &File{}
	if err := blob.Decode(data, f); err != nil {
		return nil, fmt.Errorf("cells: parse: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Load reads and parses a cells file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cells: %w", err)
	}
	f, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
