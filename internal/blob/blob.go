// Package blob is the one on-disk store behind the daemon's result
// cache and the sweep cell cache: one JSON entry file per 64-hex
// content address, decoded strictly and validated on every read,
// evicted when it fails, and written atomically (temp file + fsync +
// rename in the same directory), so a crash mid-write can never leave
// a half-visible entry — the rename either happened or it did not.
//
// The store owns only the envelope mechanics. What an entry holds, and
// what makes it valid under its address (schema version, self-address,
// payload checksum), belongs to the entry type through Validate.
package blob

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ErrMiss reports that no entry file exists for a key.
var ErrMiss = errors.New("blob: miss")

// ErrCorrupt tags an entry that exists on disk but failed to decode or
// validate; Get evicts it so the caller recomputes instead of serving
// poison.
var ErrCorrupt = errors.New("blob: corrupt entry")

// Entry is a stored value that can check itself against the key it was
// loaded under.
type Entry interface {
	Validate(key string) error
}

// Store is one directory of entry files named <key><suffix>. The
// suffix is the namespace (".run.json", ".cell.json"), so the
// directory listing IS the index. Concurrent readers and writers are
// safe: distinct keys live in distinct files, and one key written
// twice renames complete files into place.
type Store struct {
	dir, suffix string
}

// Open opens (creating if needed) the store directory.
func Open(dir, suffix string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("blob: dir is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: %w", err)
	}
	return &Store{dir: dir, suffix: suffix}, nil
}

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) path(key string) string {
	return filepath.Join(st.dir, key+st.suffix)
}

// ValidKey gates every key, including client-supplied ids: exactly 64
// lowercase hex characters, nothing path-like.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get loads the entry for key into v. A missing file returns ErrMiss.
// A present entry that does not decode strictly into v (truncated or
// torn write, garbage, unknown field) or that fails v.Validate(key)
// (schema skew, checksum mismatch, wrong address) is evicted from disk
// and reported as ErrCorrupt; the returned bool says whether the file
// was deleted.
func (st *Store) Get(key string, v Entry) (evicted bool, err error) {
	if !ValidKey(key) {
		return false, fmt.Errorf("blob: invalid key %q", key)
	}
	path := st.path(key)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, ErrMiss
	}
	if err != nil {
		return false, fmt.Errorf("blob: %w", err)
	}
	if err = Decode(data, v); err == nil {
		err = v.Validate(key)
	}
	if err != nil {
		return os.Remove(path) == nil, fmt.Errorf("%w %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	return false, nil
}

// Decode parses exactly one JSON value into v, rejecting unknown
// fields and anything but whitespace after the value. It is the one
// strict decoding rule for every JSON document the program reads back:
// store entries, scenario files and daemon submissions.
func Decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimSpace(data[dec.InputOffset():])) != 0 {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// Put stores v under key: indented JSON plus a trailing newline,
// written through WriteFile.
func (st *Store) Put(key string, v any) error {
	if !ValidKey(key) {
		return fmt.Errorf("blob: invalid key %q", key)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("blob: marshal: %w", err)
	}
	return WriteFile(st.path(key), append(data, '\n'))
}

// Len counts the well-named entry files on disk. Entries are not
// validated here — Get validates lazily on access — so it stays one
// directory listing however large the store is. Leftover temp files
// and other names are not counted.
func (st *Store) Len() (int, error) {
	names, err := os.ReadDir(st.dir)
	if err != nil {
		return 0, fmt.Errorf("blob: %w", err)
	}
	n := 0
	for _, de := range names {
		if key, ok := strings.CutSuffix(de.Name(), st.suffix); ok && ValidKey(key) {
			n++
		}
	}
	return n, nil
}

// WriteFile replaces path with data atomically: write a temp file in
// the same directory, fsync, close, rename onto path. Readers see the
// old file or the complete new one, never a torn mix. The directory
// must exist.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	defer func() {
		// Best-effort cleanup: on the success path the file was renamed
		// away and both calls fail harmlessly.
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
	}()
	if _, err := tmp.Write(data); err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("blob: %w", err)
	}
	return nil
}
