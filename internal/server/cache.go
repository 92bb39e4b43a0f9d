package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"hybridcap/internal/blob"
)

// EntrySchema is the current cache-entry file schema version. Schema 2
// added the optional cells field; schema-1 entries on disk fail
// validation and are recomputed.
const EntrySchema = 2

// entrySuffix is the filename suffix of one cache entry; the prefix is
// the scenario's canonical sha256.
const entrySuffix = ".run.json"

// Entry is one cached run result: the canonical scenario that produced
// it plus the exact bytes the run emitted. Replaying an entry serves
// the stored bytes untouched, so a cache hit is byte-identical to the
// original computation.
type Entry struct {
	// Schema is the entry file schema version.
	Schema int `json:"schema"`
	// ScenarioSHA256 is the content address: the hex SHA-256 of the
	// canonical scenario JSON stored in Scenario.
	ScenarioSHA256 string `json:"scenario_sha256"`
	// Scenario is the canonical scenario JSON.
	Scenario string `json:"scenario"`
	// Report is the rendered report text (Result.Text()).
	Report string `json:"report"`
	// Manifest is the run manifest JSON.
	Manifest string `json:"manifest"`
	// Cells is a per-cell outcomes field that no run writes (shards
	// merge through the cell cache). It stays in the payload checksum
	// so schema-2 entries that carry it still validate and replay.
	Cells string `json:"cells,omitempty"`
	// PayloadSHA256 is the hex SHA-256 over Scenario, Report, Manifest
	// and Cells (NUL-separated), detecting truncated or bit-rotted
	// entries independently of the JSON framing.
	PayloadSHA256 string `json:"payload_sha256"`
}

// payloadSum checksums the entry's payload fields.
func (e *Entry) payloadSum() string {
	h := sha256.New()
	for _, s := range []string{e.Scenario, e.Report, e.Manifest, e.Cells} {
		// hash.Hash writers are documented never to fail.
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Validate checks the entry's framing and checksum against the hash it
// was loaded under.
func (e *Entry) Validate(hash string) error {
	if e.Schema != EntrySchema {
		return fmt.Errorf("schema %d, want %d", e.Schema, EntrySchema)
	}
	if e.ScenarioSHA256 != hash {
		return fmt.Errorf("entry addressed %s claims scenario %s", hash, e.ScenarioSHA256)
	}
	sum := sha256.Sum256([]byte(e.Scenario))
	if hex.EncodeToString(sum[:]) != hash {
		return fmt.Errorf("stored scenario does not hash to %s", hash)
	}
	if e.payloadSum() != e.PayloadSHA256 {
		return fmt.Errorf("payload checksum mismatch")
	}
	return nil
}

// Store is the content-addressed result cache: one blob entry per
// scenario hash. Reloading the directory on restart is the daemon's
// checkpoint/resume. Dir and Len come from the embedded blob store.
type Store struct {
	*blob.Store
}

// NewStore opens (creating if needed) the cache directory.
func NewStore(dir string) (*Store, error) {
	b, err := blob.Open(dir, entrySuffix)
	if err != nil {
		return nil, fmt.Errorf("server: cache dir: %w", err)
	}
	return &Store{b}, nil
}

// Get loads and validates the entry for hash. A missing entry returns
// blob.ErrMiss; an invalid one is evicted and reported as
// blob.ErrCorrupt, so the caller recomputes rather than serving
// poison. The returned bool says whether an eviction happened.
func (st *Store) Get(hash string) (*Entry, bool, error) {
	e := &Entry{}
	if evicted, err := st.Store.Get(hash, e); err != nil {
		return nil, evicted, err
	}
	return e, false, nil
}

// Put stamps the entry's schema and checksum, checks it against its
// own address and persists it atomically.
func (st *Store) Put(e *Entry) error {
	e.Schema = EntrySchema
	e.PayloadSHA256 = e.payloadSum()
	if err := e.Validate(e.ScenarioSHA256); err != nil {
		return fmt.Errorf("server: cache entry: %w", err)
	}
	return st.Store.Put(e.ScenarioSHA256, e)
}
