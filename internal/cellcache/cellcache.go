// Package cellcache is the persistent cell-result cache behind
// incremental sweeps: one JSON entry file per evaluated grid cell,
// keyed by the cell's full identity — the canonical scenario scope
// reduced to the dimensions the cell's value depends on, the grid
// point, and the seed index. Because the engine pre-derives per-cell
// seeds and merges in grid order, a cell's value is a pure function of
// that key, so replaying a stored value is byte-identical to
// recomputing it: editing one dimension of a regime re-runs only the
// cells whose scope changed.
//
// Entries live in the same blob store as the server's run cache
// (internal/blob: content-addressed filenames, strict decoding,
// atomic temp-file+fsync+rename writes, evict-on-corruption); this
// package adds the schema version and a payload checksum detecting
// truncation and bit rot independently of the JSON framing.
package cellcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strconv"

	"hybridcap/internal/blob"
	"hybridcap/internal/obs"
)

// EntrySchema is the current cache-entry file schema version. Bumping
// it invalidates every existing entry: old files fail validation, are
// evicted, and their cells recompute.
const EntrySchema = 1

// entrySuffix is the filename suffix of one cell entry; the prefix is
// the cell's key hash.
const entrySuffix = ".cell.json"

// The cache counters live in the process-default obs registry, so a
// -metrics-out dump carries them alongside the engine metrics, and a
// warm re-run can prove its 100% hit rate from the dump alone.
var (
	cacheHits      = obs.Default().Counter("cellcache_hits_total")
	cacheMisses    = obs.Default().Counter("cellcache_misses_total")
	cachePuts      = obs.Default().Counter("cellcache_puts_total")
	cacheEvictions = obs.Default().Counter("cellcache_evictions_total")
)

// Stats is a snapshot of the process-wide cell-cache counters.
type Stats struct {
	// Hits counts lookups served from a valid stored entry.
	Hits uint64
	// Misses counts lookups that found no (valid) entry.
	Misses uint64
	// Puts counts entries persisted.
	Puts uint64
	// Evictions counts corrupt entries removed on access.
	Evictions uint64
}

// ReadStats returns the current counters. Deltas between two snapshots
// measure the cache behavior of an enclosed workload.
func ReadStats() Stats {
	return Stats{
		Hits:      cacheHits.Value(),
		Misses:    cacheMisses.Value(),
		Puts:      cachePuts.Value(),
		Evictions: cacheEvictions.Value(),
	}
}

// Key derives the content address of one cell: the hex SHA-256 over
// the canonical scope bytes, the grid point value and the cell's
// derived seed, NUL-separated. The scope must be a canonical
// (deterministic) encoding of every scenario dimension the cell's
// value depends on. The seed is the derived per-cell seed VALUE, not
// the seed index: a change to the seed-derivation chain then misses
// naturally instead of replaying a stale instance.
func Key(scope []byte, point int, seed uint64) string {
	h := sha256.New()
	// hash.Hash writers are documented never to fail.
	_, _ = h.Write(scope)
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(strconv.Itoa(point)))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(strconv.FormatUint(seed, 10)))
	_, _ = h.Write([]byte{0})
	return hex.EncodeToString(h.Sum(nil))
}

// Entry is one cached cell result: the scope and coordinates that
// produced it plus the value, self-describing enough to re-derive and
// verify its own key.
type Entry struct {
	// Schema is the entry file schema version.
	Schema int `json:"schema"`
	// Key is the content address: Key(Scope, Point, Seed).
	Key string `json:"key"`
	// Scope is the canonical scope the cell was evaluated under.
	Scope string `json:"scope"`
	// Point is the grid point value (the network size n for sweeps).
	Point int `json:"point"`
	// Seed is the derived per-cell seed the instance was built from.
	Seed uint64 `json:"seed"`
	// Value is the cell's result. JSON round-trips float64 exactly
	// (Go emits the shortest representation that parses back to the
	// same bits), so a replayed value is bit-identical.
	Value float64 `json:"value"`
	// Delay is the cell's optional delay half: the flat per-scheme
	// delay statistics measured on the same instance as Value. The
	// cache stores plain floats and never interprets them; a
	// lambda-only entry omits the field.
	Delay []float64 `json:"delay,omitempty"`
	// PayloadSHA256 is the hex SHA-256 over Scope, Point, Seed and the
	// IEEE-754 bits of Value and every Delay value (NUL-separated),
	// detecting truncated or bit-rotted entries independently of the
	// JSON framing.
	PayloadSHA256 string `json:"payload_sha256"`
}

// payloadSum checksums the entry's payload fields. Values are hashed
// by their bit patterns, so the checksum is exact where a decimal
// rendering could alias.
func (e *Entry) payloadSum() string {
	h := sha256.New()
	field := func(s string) {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	bits := func(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }
	field(e.Scope)
	field(strconv.Itoa(e.Point))
	field(strconv.FormatUint(e.Seed, 10))
	field(bits(e.Value))
	for _, v := range e.Delay {
		field(bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Validate checks the entry's framing, self-address and checksum
// against the key it was loaded under.
func (e *Entry) Validate(key string) error {
	if e.Schema != EntrySchema {
		return fmt.Errorf("schema %d, want %d", e.Schema, EntrySchema)
	}
	if e.Key != key {
		return fmt.Errorf("entry addressed %s claims key %s", key, e.Key)
	}
	if Key([]byte(e.Scope), e.Point, e.Seed) != key {
		return fmt.Errorf("stored cell does not hash to %s", key)
	}
	if e.payloadSum() != e.PayloadSHA256 {
		return fmt.Errorf("payload checksum mismatch")
	}
	return nil
}

// Store is the on-disk cell cache: one blob entry per cell key. Dir
// and Len come from the embedded blob store.
type Store struct {
	*blob.Store
}

// NewStore opens (creating if needed) the cache directory.
func NewStore(dir string) (*Store, error) {
	b, err := blob.Open(dir, entrySuffix)
	if err != nil {
		return nil, fmt.Errorf("cellcache: %w", err)
	}
	return &Store{b}, nil
}

// Get loads and validates the entry for key. A missing entry returns
// blob.ErrMiss; an invalid one is evicted and reported as
// blob.ErrCorrupt, so the caller recomputes rather than replaying
// poison. The returned bool says whether an eviction happened.
//
// delayLen is the length of the delay half the caller's cells carry
// (none: a lambda-only cell). A valid entry of another shape, such as
// a lambda-only entry stored before its scope's cells gained a delay
// half, is a miss without eviction: the recomputed cell overwrites it.
func (st *Store) Get(key string, delayLen ...int) (*Entry, bool, error) {
	e := &Entry{}
	evicted, err := st.Store.Get(key, e)
	if evicted {
		cacheEvictions.Inc()
	}
	want := 0
	if len(delayLen) > 0 {
		want = delayLen[0]
	}
	if err == nil && len(e.Delay) != want {
		err = fmt.Errorf("cellcache: %w: entry has %d delay values, want %d", blob.ErrMiss, len(e.Delay), want)
	}
	if err != nil {
		cacheMisses.Inc()
		return nil, evicted, err
	}
	cacheHits.Inc()
	return e, false, nil
}

// nonFinite reports whether v is NaN or ±Inf.
func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// Put persists one cell value and its optional delay half atomically
// under Key(scope, point, seed). Non-finite values are rejected — NaN
// and ±Inf do not survive a JSON round trip, and a cell producing one
// should recompute (and re-fail) rather than replay.
func (st *Store) Put(scope []byte, point int, seed uint64, value float64, delay ...float64) error {
	if slices.ContainsFunc(delay, nonFinite) || nonFinite(value) {
		return fmt.Errorf("cellcache: non-finite value in %v %v is not cacheable", value, delay)
	}
	e := &Entry{
		Schema: EntrySchema,
		Key:    Key(scope, point, seed),
		Scope:  string(scope),
		Point:  point,
		Seed:   seed,
		Value:  value,
		Delay:  delay,
	}
	e.PayloadSHA256 = e.payloadSum()
	if err := st.Store.Put(e.Key, e); err != nil {
		return err
	}
	cachePuts.Inc()
	return nil
}
