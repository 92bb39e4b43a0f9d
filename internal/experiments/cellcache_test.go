package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hybridcap/internal/blob"
	"hybridcap/internal/cellcache"
	"hybridcap/internal/obs"
)

// manifestBytes marshals a manifest with its two non-result fields
// normalized: the mobility kernel-cache delta (process-global, so the
// per-run delta depends on which tests ran earlier in the process) and
// the recorded worker count (bookkeeping for perf attribution; results
// are worker-independent by construction).
func manifestBytes(t *testing.T, m *obs.Manifest) string {
	t.Helper()
	c := *m
	c.Cache = obs.CacheDelta{}
	c.Workers = 0
	data, err := c.Marshal()
	if err != nil {
		t.Fatalf("marshal manifest: %v", err)
	}
	return string(data)
}

// The persistent cell cache must be invisible in the output: for every
// worker count, a cold cached run and a warm cached run must render the
// exact report bytes of an uncached run, and the warm run must replay
// every cell instead of recomputing.
func TestCellCacheByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := tinyScenario()
	base, err := RunScenario(context.Background(), sc, Options{Workers: 1})
	if err != nil {
		t.Fatalf("uncached run: %v", err)
	}
	want := base.Text()
	wantManifest := manifestBytes(t, base.Manifest)

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			store, err := cellcache.NewStore(t.TempDir())
			if err != nil {
				t.Fatalf("NewStore: %v", err)
			}
			o := Options{Workers: workers, CellCache: store}

			cold, err := RunScenario(context.Background(), sc, o)
			if err != nil {
				t.Fatalf("cold run: %v", err)
			}
			if cold.Text() != want {
				t.Errorf("cold cached report differs from uncached:\n--- want\n%s\n--- got\n%s", want, cold.Text())
			}
			coldManifest := manifestBytes(t, cold.Manifest)
			if coldManifest != wantManifest {
				t.Errorf("cold cached manifest differs from uncached:\n--- want\n%s\n--- got\n%s", wantManifest, coldManifest)
			}
			cells := 0
			for _, p := range cold.Manifest.Phases {
				cells += p.Cells
			}
			if n, err := store.Len(); err != nil || n != cells {
				t.Fatalf("cold run persisted %d entries (%v), want %d", n, err, cells)
			}

			warm, err := RunScenario(context.Background(), sc, o)
			if err != nil {
				t.Fatalf("warm run: %v", err)
			}
			if warm.Text() != want {
				t.Errorf("warm cached report differs from uncached:\n--- want\n%s\n--- got\n%s", want, warm.Text())
			}
			// The warm manifest differs from the cold one in exactly one
			// way: every successful cell is tallied as cached.
			total := warm.Manifest.Total()
			if total.Cached != total.OK || total.Cached != cells {
				t.Errorf("warm run replayed %d/%d cells (ok %d)", total.Cached, cells, total.OK)
			}
		})
	}
}

// Editing a scenario dimension outside the cell scope (grid shape,
// description, fit) must keep its untouched cells; editing a scoped
// dimension must miss.
func TestCellCacheScopeSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	store, err := cellcache.NewStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	o := Options{Workers: 2, CellCache: store}
	if _, err := RunScenario(context.Background(), tinyScenario(), o); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	seeded, err := store.Len()
	if err != nil || seeded == 0 {
		t.Fatalf("seed run stored %d entries (%v)", seeded, err)
	}

	// A scenario sharing a prefix of the size grid replays those cells.
	shrunk := tinyScenario()
	shrunk.Sizes = shrunk.Sizes[:2]
	shrunk.Description = "edited presentation"
	shrunk.Fit = false
	res, err := RunScenario(context.Background(), shrunk, o)
	if err != nil {
		t.Fatalf("shrunk run: %v", err)
	}
	if total := res.Manifest.Total(); total.Cached != total.Cells {
		t.Errorf("shrunk grid replayed %d/%d cells; scope leaked a non-cell dimension", total.Cached, total.Cells)
	}

	// Changing a scoped dimension (the scheme set) must recompute.
	edited := tinyScenario()
	edited.Schemes = []string{"gridMultihop"}
	res, err = RunScenario(context.Background(), edited, o)
	if err != nil {
		t.Fatalf("edited run: %v", err)
	}
	if total := res.Manifest.Total(); total.Cached != 0 {
		t.Errorf("edited scheme set replayed %d cells; stale hits", total.Cached)
	}
}

// A cache written when a delay scenario's entries held only lambda
// stays correct: each lambda-only entry under the delay scope misses
// (in the store counters and the manifest's cached tally alike), its
// cell is recomputed, and the recomputed cell overwrites the entry with
// both halves, so the next run replays every cell.
func TestLambdaOnlyEntryUnderDelayScopeRecomputed(t *testing.T) {
	sc := loadShipped(t, "d2d-baseline")
	dir := t.TempDir()
	store := openStore(t, dir)
	o := Options{Quick: true, Seeds: 2, Workers: 2, CellCache: store}
	ref, err := RunScenario(context.Background(), sc, o)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	cells := ref.Manifest.GridCells

	// Strip every entry down to its lambda.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var e cellcache.Entry
		if err := blob.Decode(data, &e); err != nil {
			t.Fatal(err)
		}
		if len(e.Delay) == 0 {
			t.Fatalf("delay scenario stored %s without its delay half", f.Name())
		}
		if err := store.Put([]byte(e.Scope), e.Point, e.Seed, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := store.Len(); err != nil || n != cells {
		t.Fatalf("cache holds %d entries (%v), want %d", n, err, cells)
	}

	for _, c := range []struct {
		name           string
		misses, cached int
	}{{"lambda-only entries", cells, 0}, {"overwritten entries", 0, cells}} {
		before := cellcache.ReadStats()
		res, err := RunScenario(context.Background(), sc, o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d := cellcache.ReadStats()
		if d.Misses-before.Misses != uint64(c.misses) || d.Hits-before.Hits != uint64(cells-c.misses) ||
			d.Evictions != before.Evictions {
			t.Errorf("%s: hits=%d misses=%d evictions=%d, want %d/%d/0", c.name,
				d.Hits-before.Hits, d.Misses-before.Misses, d.Evictions-before.Evictions, cells-c.misses, c.misses)
		}
		if got := res.Manifest.Total().Cached; got != c.cached {
			t.Errorf("%s: manifest tallies %d cells cached, want %d", c.name, got, c.cached)
		}
		if res.Text() != ref.Text() {
			t.Errorf("%s: report differs from the cold run:\n--- want\n%s\n--- got\n%s", c.name, ref.Text(), res.Text())
		}
	}
}
