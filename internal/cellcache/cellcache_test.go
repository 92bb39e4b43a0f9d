package cellcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hybridcap/internal/blob"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return st
}

// A stored cell must replay bit-identically, including values whose
// shortest decimal rendering exercises the float64 round trip.
func TestPutGetRoundTrip(t *testing.T) {
	st := testStore(t)
	scope := []byte("scope-a\n")
	vals := []float64{0, 1.0 / 3.0, 6.103515625e-05, math.Pi, 1e-300, -42.125}
	for i, v := range vals {
		if err := st.Put(scope, 128, uint64(i)+7, v); err != nil {
			t.Fatalf("Put(%g): %v", v, err)
		}
	}
	for i, v := range vals {
		e, evicted, err := st.Get(Key(scope, 128, uint64(i)+7))
		if err != nil || evicted {
			t.Fatalf("Get(%g): evicted=%v err=%v", v, evicted, err)
		}
		if math.Float64bits(e.Value) != math.Float64bits(v) {
			t.Errorf("value drifted: got %x want %x", math.Float64bits(e.Value), math.Float64bits(v))
		}
	}
	if n, err := st.Len(); err != nil || n != len(vals) {
		t.Errorf("Len = %d, %v; want %d", n, err, len(vals))
	}
}

// Distinct scopes, points and seeds must address distinct entries.
func TestKeySeparation(t *testing.T) {
	base := Key([]byte("s"), 1, 2)
	for name, k := range map[string]string{
		"scope": Key([]byte("t"), 1, 2),
		"point": Key([]byte("s"), 2, 2),
		"seed":  Key([]byte("s"), 1, 3),
	} {
		if k == base {
			t.Errorf("%s not part of the key", name)
		}
	}
	// The NUL separators must prevent field-boundary aliasing.
	if Key([]byte("s1"), 12, 3) == Key([]byte("s"), 112, 3) {
		t.Error("scope/point boundary aliases")
	}
}

// A miss is blob.ErrMiss, not an eviction and not a failure.
func TestGetMiss(t *testing.T) {
	st := testStore(t)
	_, evicted, err := st.Get(Key([]byte("nothing"), 1, 1))
	if !errors.Is(err, blob.ErrMiss) || evicted {
		t.Fatalf("want blob.ErrMiss without eviction, got evicted=%v err=%v", evicted, err)
	}
}

// Entry.Validate must reject bit rot in the value or the delay half, a
// seed that no longer hashes to the address, and an entry from another
// schema version (how a cache-format change invalidates stale data);
// the store then evicts it so the cell recomputes instead of replaying
// poison. Damage to the file framing is covered once, in
// internal/blob.
func TestCorruptionEviction(t *testing.T) {
	for name, c := range map[string]struct {
		delay  []float64
		mangle func(e *Entry)
	}{
		"bit-rot":       {nil, func(e *Entry) { e.Value = 1.5 }},
		"wrong-seed":    {nil, func(e *Entry) { e.Seed = 8 }},
		"schema-skew":   {nil, func(e *Entry) { e.Schema = EntrySchema + 1 }},
		"delay-bit-rot": {[]float64{3, 0.25, 7}, func(e *Entry) { e.Delay[1] = 0.5 }},
	} {
		t.Run(name, func(t *testing.T) {
			st := testStore(t)
			scope := []byte("scope")
			if err := st.Put(scope, 64, 9, 0.5, c.delay...); err != nil {
				t.Fatalf("Put: %v", err)
			}
			key := Key(scope, 64, 9)
			e, _, err := st.Get(key, len(c.delay))
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			c.mangle(e)
			data, err := json.MarshalIndent(e, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(st.Dir(), key+entrySuffix), data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := ReadStats()
			if _, evicted, err := st.Get(key, len(c.delay)); !errors.Is(err, blob.ErrCorrupt) || !evicted {
				t.Fatalf("Get: evicted=%v err=%v, want corrupt and evicted", evicted, err)
			}
			if d := ReadStats().Evictions - before.Evictions; d != 1 {
				t.Errorf("evictions moved by %d, want 1", d)
			}
		})
	}
}

// A delay half replays bit-identically. A valid entry of another shape
// than the caller's cells carry, such as a lambda-only entry under a
// scope whose cells gained a delay half, is a miss: counted as one,
// never as a hit, and not evicted, so the recomputed cell's Put
// overwrites it.
func TestDelayHalfShape(t *testing.T) {
	st := testStore(t)
	scope := []byte("delay-scope")
	key := Key(scope, 256, 3)
	if err := st.Put(scope, 256, 3, 0.125); err != nil {
		t.Fatalf("Put lambda-only: %v", err)
	}
	before := ReadStats()
	if _, evicted, err := st.Get(key, 3); !errors.Is(err, blob.ErrMiss) || evicted {
		t.Fatalf("lambda-only entry under a delay scope: evicted=%v err=%v, want an unevicted miss", evicted, err)
	}
	if d := ReadStats(); d.Misses-before.Misses != 1 || d.Hits != before.Hits || d.Evictions != before.Evictions {
		t.Errorf("deltas hits=%d misses=%d evictions=%d, want 0/1/0",
			d.Hits-before.Hits, d.Misses-before.Misses, d.Evictions-before.Evictions)
	}
	delay := []float64{1.0 / 3, 6.103515625e-05, 42}
	if err := st.Put(scope, 256, 3, 0.125, delay...); err != nil {
		t.Fatalf("Put with delay: %v", err)
	}
	e, _, err := st.Get(key, len(delay))
	if err != nil {
		t.Fatalf("Get after overwrite: %v", err)
	}
	for i := range delay {
		if math.Float64bits(e.Delay[i]) != math.Float64bits(delay[i]) {
			t.Errorf("delay[%d] drifted: got %v want %v", i, e.Delay[i], delay[i])
		}
	}
	if _, _, err := st.Get(key); !errors.Is(err, blob.ErrMiss) {
		t.Errorf("entry with a delay half served to a lambda-only caller: %v", err)
	}
}

// A cell-cache directory written before the blob store (testdata,
// produced by the previous Store.Put) must stay warm: its entry is
// served without eviction, and re-storing it rewrites the same bytes.
func TestWarmCacheFromPreviousFormat(t *testing.T) {
	const key = "cdd82c873b14c360d46ff5f1fbdebfdbd74fc418ab97c8a9124e4aa0869afdda"
	want, err := os.ReadFile(filepath.Join("testdata", key+entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	st := testStore(t)
	path := filepath.Join(st.Dir(), key+entrySuffix)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	e, evicted, err := st.Get(key)
	if err != nil || evicted {
		t.Fatalf("Get: evicted=%v err=%v, want a hit", evicted, err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte(e.Scope), e.Point, e.Seed, e.Value); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Errorf("re-Put wrote\n%s\nwant\n%s", got, want)
	}
}

// Non-finite values must be refused: they cannot round-trip JSON and a
// failing cell should recompute, not replay.
func TestPutNonFinite(t *testing.T) {
	st := testStore(t)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := st.Put([]byte("s"), 1, 1, v); err == nil {
			t.Errorf("Put(%v) accepted", v)
		}
		if err := st.Put([]byte("s"), 1, 1, 0.5, 1, v); err == nil {
			t.Errorf("Put with delay value %v accepted", v)
		}
	}
	if n, _ := st.Len(); n != 0 {
		t.Errorf("non-finite Put left %d entries", n)
	}
}

// The stats counters are process-global; deltas around a workload must
// reflect its hits, misses, puts and evictions.
func TestReadStatsDeltas(t *testing.T) {
	st := testStore(t)
	before := ReadStats()
	scope := []byte("stats")
	if _, _, err := st.Get(Key(scope, 1, 1)); !errors.Is(err, blob.ErrMiss) {
		t.Fatalf("want miss: %v", err)
	}
	if err := st.Put(scope, 1, 1, 1.5); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, _, err := st.Get(Key(scope, 1, 1)); err != nil {
		t.Fatalf("Get: %v", err)
	}
	after := ReadStats()
	if after.Misses-before.Misses != 1 || after.Puts-before.Puts != 1 || after.Hits-before.Hits != 1 {
		t.Errorf("deltas hits=%d misses=%d puts=%d, want 1/1/1",
			after.Hits-before.Hits, after.Misses-before.Misses, after.Puts-before.Puts)
	}
}
