package obs

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"hybridcap/internal/blob"
)

func sampleManifest() *Manifest {
	return &Manifest{
		Schema:         ManifestSchema,
		Name:           "strong-BS",
		ScenarioSHA256: "abc123",
		Sizes:          []int{512, 1024, 2048},
		Seeds:          2,
		Workers:        8,
		Faults:         "bs-outage=0.3 seed=1",
		Cache:          CacheDelta{Hits: 10, Misses: 2},
		Phases: []PhaseTally{
			{Phase: "sweep strong-BS", Cells: 6, OK: 5, EvaluateFailed: 1},
			{Phase: "sweep strong-noBS", Cells: 6, OK: 4, ConstructFailed: 2},
		},
	}
}

// Marshal -> blob.Decode -> Marshal must be byte-identical.
func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var parsed Manifest
	if err := blob.Decode(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Schema != ManifestSchema {
		t.Errorf("schema %d, want %d", parsed.Schema, ManifestSchema)
	}
	again, err := parsed.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("round trip drifted:\n--- first ---\n%s\n--- second ---\n%s", data, again)
	}
}

// Total sums the per-phase tallies.
func TestManifestTotal(t *testing.T) {
	total := sampleManifest().Total()
	want := PhaseTally{Phase: "total", Cells: 12, OK: 9, ConstructFailed: 2, EvaluateFailed: 1}
	if total != want {
		t.Errorf("total = %+v, want %+v", total, want)
	}
}

// WriteFile creates parents and writes the canonical encoding.
func TestManifestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deep", "run.manifest.json")
	if err := sampleManifest().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntimeWith(NewFrozenClock(Epoch), NewRegistry())
	rt.Metrics.Counter("x_total").Inc()
	mPath := filepath.Join(t.TempDir(), "m", "metrics.txt")
	if err := rt.WriteMetricsFile(mPath); err != nil {
		t.Fatal(err)
	}
	tPath := filepath.Join(t.TempDir(), "t", "trace.json")
	rt.Root.End()
	if err := rt.WriteTraceFile(tPath); err != nil {
		t.Fatal(err)
	}
}

// The expvar bridge renders counters, gauges and histograms and is
// idempotent on double publication.
func TestExpvarSnapshotAndHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("cells_total").Add(5)
	r.Gauge("points").Set(3)
	r.Histogram("d_seconds", DefSecondsBuckets()).Observe(0.25)
	snap := r.expvarSnapshot()
	if snap["cells_total"] != uint64(5) {
		t.Errorf("counter snapshot %v", snap["cells_total"])
	}
	if snap["points"] != int64(3) {
		t.Errorf("gauge snapshot %v", snap["points"])
	}
	if h, ok := snap["d_seconds"].(map[string]any); !ok || h["count"] != uint64(1) {
		t.Errorf("histogram snapshot %v", snap["d_seconds"])
	}
	PublishExpvar("obs_test_registry", r)
	PublishExpvar("obs_test_registry", r) // second publish must not panic

	text := r.Text()
	if !strings.Contains(text, "cells_total 5") {
		t.Errorf("text render missing counter:\n%s", text)
	}
}
