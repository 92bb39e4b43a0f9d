package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hybridcap/internal/blob"
)

func testEntry(report string) *Entry {
	// A syntactically valid scenario is not required at the Store layer;
	// the scenario field only has to hash to the address.
	scenarioJS := `{"name":"cache-test"}` + "\n"
	e := &Entry{
		Scenario: scenarioJS,
		Report:   report,
		Manifest: `{"schema":1}`,
	}
	e.ScenarioSHA256 = hexSum(scenarioJS)
	return e
}

func hexSum(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestStoreRoundTripIsByteStable(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("report line 1\nreport line 2\n")
	if err := st.Put(e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, evicted, err := st.Get(e.ScenarioSHA256)
	if err != nil || evicted {
		t.Fatalf("Get: evicted=%v err=%v", evicted, err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("round trip changed the entry:\n%+v\nvs\n%+v", got, e)
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Errorf("Len() = %d, %v; want 1", n, err)
	}
}

func TestStoreMissingEntryIsCacheMiss(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, evicted, err := st.Get(strings.Repeat("a", 64))
	if !errors.Is(err, blob.ErrMiss) || evicted {
		t.Errorf("Get(absent): evicted=%v err=%v, want blob.ErrMiss", evicted, err)
	}
}

// Entry.Validate must reject a tampered payload, a schema from another
// version and an entry stored under the wrong address; the store then
// evicts it so the server recomputes instead of serving poison. Damage
// to the file framing is covered once, in internal/blob.
func TestStoreCorruptEntryEvicted(t *testing.T) {
	// Each case damages the entry and returns the address to store it
	// under.
	for name, corrupt := range map[string]func(e *Entry) string{
		"payload-tampered": func(e *Entry) string { e.Report = "a falsehood\n"; return e.ScenarioSHA256 },
		"schema-skew":      func(e *Entry) string { e.Schema = EntrySchema - 1; return e.ScenarioSHA256 },
		"wrong-address":    func(*Entry) string { return strings.Repeat("b", 64) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			e := testEntry("the truth\n")
			if err := st.Put(e); err != nil {
				t.Fatal(err)
			}
			addr := corrupt(e)
			data, err := json.MarshalIndent(e, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, addr+entrySuffix), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, evicted, err := st.Get(addr); !errors.Is(err, blob.ErrCorrupt) || !evicted {
				t.Errorf("Get: evicted=%v err=%v, want corrupt and evicted", evicted, err)
			}
		})
	}
}

// A result-cache directory written before the blob store (testdata,
// produced by the previous Store.Put) must stay warm: its entry is
// served without eviction, and re-storing it rewrites the same bytes.
func TestWarmCacheFromPreviousFormat(t *testing.T) {
	const hash = "20e1167025ea5f5ea569d1bec96dae59a1a21aad35be217a98ef1c7f0249293f"
	want, err := os.ReadFile(filepath.Join("testdata", hash+entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, hash+entrySuffix)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, evicted, err := st.Get(hash)
	if err != nil || evicted {
		t.Fatalf("Get: evicted=%v err=%v, want a hit", evicted, err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(e); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Errorf("re-Put wrote\n%s\nwant\n%s", got, want)
	}
}
