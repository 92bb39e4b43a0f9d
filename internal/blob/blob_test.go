package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// record is the suite's entry type: self-addressed by its payload's
// hash, schema-versioned and checksummed, like the run and cell
// entries stored in production.
type record struct {
	Schema  int    `json:"schema"`
	Key     string `json:"key"`
	Payload string `json:"payload"`
	Sum     string `json:"sum"`
}

const (
	recordSchema = 1
	suffix       = ".rec.json"
)

func hexSum(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func newRecord(payload string) *record {
	return &record{Schema: recordSchema, Key: hexSum(payload), Payload: payload, Sum: hexSum("sum\x00" + payload)}
}

func (r *record) Validate(key string) error {
	if r.Schema != recordSchema {
		return fmt.Errorf("schema %d, want %d", r.Schema, recordSchema)
	}
	if r.Key != key || hexSum(r.Payload) != key {
		return fmt.Errorf("entry addressed %s claims key %s", key, r.Key)
	}
	if hexSum("sum\x00"+r.Payload) != r.Sum {
		return fmt.Errorf("payload checksum mismatch")
	}
	return nil
}

func openStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(t.TempDir(), suffix)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

// encode renders v exactly as Put writes it.
func encode(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestCrashConsistency is the one crash-consistency suite behind the
// result cache and the cell cache: every way an entry file can be
// damaged on disk must be detected on read, evicted, reported as
// ErrCorrupt, and leave the key a plain miss that a Put refills.
func TestCrashConsistency(t *testing.T) {
	good := newRecord("the truth")
	other := newRecord("another entry")
	for name, damage := range map[string]func(t *testing.T, data []byte) []byte{
		"empty":     func(_ *testing.T, _ []byte) []byte { return nil },
		"truncated": func(_ *testing.T, data []byte) []byte { return data[:len(data)/2] },
		// A torn write: the leading bytes of a valid entry, then
		// whatever the crash left behind.
		"torn-mid": func(_ *testing.T, data []byte) []byte {
			return append(data[:len(data)/2:len(data)/2], "\x00\x00\xff"...)
		},
		"torn-tail": func(_ *testing.T, data []byte) []byte { return append(data[:len(data):len(data)], `{"schema": 1`...) },
		"not-json":  func(_ *testing.T, _ []byte) []byte { return []byte("not json at all") },
		"unknown-field": func(_ *testing.T, data []byte) []byte {
			return bytes.Replace(data, []byte("{"), []byte(`{"extra": 1,`), 1)
		},
		"schema-skew": func(t *testing.T, _ []byte) []byte {
			r := *good
			r.Schema = recordSchema + 1
			return encode(t, &r)
		},
		"checksum-mismatch": func(_ *testing.T, data []byte) []byte {
			return bytes.Replace(data, []byte("the truth"), []byte("a falsehood"), 1)
		},
		"wrong-address": func(t *testing.T, _ []byte) []byte { return encode(t, other) },
	} {
		t.Run(name, func(t *testing.T) {
			st := openStore(t)
			if err := st.Put(good.Key, good); err != nil {
				t.Fatalf("Put: %v", err)
			}
			path := filepath.Join(st.Dir(), good.Key+suffix)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(t, data), 0o644); err != nil {
				t.Fatal(err)
			}
			evicted, err := st.Get(good.Key, &record{})
			if !errors.Is(err, ErrCorrupt) || !evicted {
				t.Fatalf("Get(damaged): evicted=%v err=%v, want ErrCorrupt and evicted", evicted, err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("damaged file still on disk: %v", err)
			}
			if evicted, err := st.Get(good.Key, &record{}); !errors.Is(err, ErrMiss) || evicted {
				t.Fatalf("Get after eviction: evicted=%v err=%v, want ErrMiss", evicted, err)
			}
			if err := st.Put(good.Key, good); err != nil {
				t.Fatalf("refill: %v", err)
			}
			got := &record{}
			if _, err := st.Get(good.Key, got); err != nil || *got != *good {
				t.Fatalf("refilled entry: %+v, %v", got, err)
			}
		})
	}
}

// Put writes indented JSON plus a newline, Get returns it unchanged,
// and a second Put of the same value rewrites the same bytes.
func TestRoundTripByteStable(t *testing.T) {
	st := openStore(t)
	r := newRecord("payload\nwith lines\n")
	if err := st.Put(r.Key, r); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := filepath.Join(st.Dir(), r.Key+suffix)
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, encode(t, r)) {
		t.Errorf("file bytes:\n%s\nwant MarshalIndent plus newline", first)
	}
	got := &record{}
	if evicted, err := st.Get(r.Key, got); err != nil || evicted || *got != *r {
		t.Fatalf("Get: %+v evicted=%v err=%v", got, evicted, err)
	}
	if err := st.Put(r.Key, got); err != nil {
		t.Fatal(err)
	}
	if second, _ := os.ReadFile(path); !bytes.Equal(first, second) {
		t.Error("re-Put changed the file bytes")
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1", n, err)
	}
}

// A missing file is a miss, not an eviction.
func TestMissIsNotEviction(t *testing.T) {
	st := openStore(t)
	if evicted, err := st.Get(strings.Repeat("a", 64), &record{}); !errors.Is(err, ErrMiss) || evicted {
		t.Errorf("Get(absent): evicted=%v err=%v, want ErrMiss", evicted, err)
	}
}

// A crash between CreateTemp and Rename leaves a .tmp-* file beside
// the entries: it is neither counted nor served, and the entry it was
// replacing stays intact. Other names in the directory, including
// another namespace's suffix, are ignored the same way.
func TestLeftoverTempFileIgnored(t *testing.T) {
	st := openStore(t)
	r := newRecord("committed")
	if err := st.Put(r.Key, r); err != nil {
		t.Fatal(err)
	}
	half := encode(t, newRecord("in flight"))
	orphan := newRecord("never committed")
	for name, data := range map[string][]byte{
		"." + r.Key + suffix + ".tmp-123":      half[:len(half)/2],
		"." + orphan.Key + suffix + ".tmp-456": encode(t, orphan),
		"notes.txt":                            []byte("x"),
		strings.Repeat("g", 64) + suffix:       []byte("x"),
		orphan.Key + ".other.json":             encode(t, orphan),
	} {
		if err := os.WriteFile(filepath.Join(st.Dir(), name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1", n, err)
	}
	got := &record{}
	if _, err := st.Get(r.Key, got); err != nil || *got != *r {
		t.Errorf("committed entry: %+v, %v", got, err)
	}
	if _, err := st.Get(orphan.Key, &record{}); !errors.Is(err, ErrMiss) {
		t.Errorf("Get(uncommitted) = %v, want ErrMiss", err)
	}
}

// Keys become file names, and client-supplied ids reach Get: anything
// but 64 lowercase hex characters is refused before touching disk.
func TestPathLikeKeysRejected(t *testing.T) {
	st := openStore(t)
	r := newRecord("x")
	for _, key := range []string{
		"", "abc", "../../../etc/passwd", strings.Repeat("A", 64),
		strings.Repeat("a", 63) + "/", strings.Repeat("a", 65), "../" + strings.Repeat("a", 61),
	} {
		if ValidKey(key) {
			t.Errorf("ValidKey(%q) = true", key)
		}
		if evicted, err := st.Get(key, &record{}); err == nil || evicted || errors.Is(err, ErrMiss) || errors.Is(err, ErrCorrupt) {
			t.Errorf("Get(%q): evicted=%v err=%v, want invalid-key error", key, evicted, err)
		}
		if err := st.Put(key, r); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
	}
	if names, _ := os.ReadDir(st.Dir()); len(names) != 0 {
		t.Errorf("rejected keys left files: %v", names)
	}
}

// Concurrent Puts of one key race only on the rename: readers see a
// miss or a complete entry, never a torn one, and no temp file
// survives. Run under -race.
func TestConcurrentPutOneKey(t *testing.T) {
	st := openStore(t)
	r := newRecord("contended")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := st.Put(r.Key, r); err != nil {
					errs <- err
					return
				}
				got := &record{}
				if _, err := st.Get(r.Key, got); err != nil || *got != *r {
					errs <- fmt.Errorf("Get during Puts: %+v, %v", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	names, err := os.ReadDir(st.Dir())
	if err != nil || len(names) != 1 || names[0].Name() != r.Key+suffix {
		t.Errorf("directory after concurrent Puts: %v, %v; want the one entry", names, err)
	}
}

// WriteFile replaces an existing file whole, with mode 0644, and fails
// without leaving anything when the directory is missing.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	for _, content := range []string{"first version, longer than the second\n", "second\n"} {
		if err := WriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != content {
			t.Errorf("file = %q, want %q", got, content)
		}
	}
	if fi, err := os.Stat(path); err != nil {
		t.Error(err)
	} else if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", fi.Mode().Perm())
	}
	if err := WriteFile(filepath.Join(dir, "missing", "a.json"), []byte("x")); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only the artifact", names)
	}
}

// Decode is the strict rule for every JSON document read back: unknown
// fields, garbage and bytes after the value are rejected; trailing
// whitespace is not.
func TestDecodeStrict(t *testing.T) {
	for _, c := range []struct {
		name, data string
		ok         bool
	}{
		{"exact", `{"key":"k"}`, true},
		{"trailing-whitespace", "{\"key\":\"k\"}\n\t ", true},
		{"unknown-field", `{"key":"k","typo":1}`, false},
		{"trailing-data", `{"key":"k"}x`, false},
		{"second-value", `{"key":"k"}{"key":"k"}`, false},
		{"not-json", "not json", false},
	} {
		var r record
		if err := Decode([]byte(c.data), &r); (err == nil) != c.ok {
			t.Errorf("%s: Decode = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
