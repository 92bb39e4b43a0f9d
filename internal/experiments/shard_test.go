package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hybridcap/internal/cellcache"
	"hybridcap/internal/obs"
	"hybridcap/internal/scenario"
)

// shardOpts are the options every run in these tests executes under:
// quick sizes with 4 seeds per point give strong-mobility a 12-cell grid
// and the delay scenarios 8 cells each, enough for a 7-way split to stay
// valid.
func shardOpts(workers int, store *cellcache.Store) Options {
	return Options{Quick: true, Seeds: 4, Workers: workers, CellCache: store}
}

// loadShipped loads a shipped scenario by file name.
func loadShipped(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", name+".json"))
	if err != nil {
		t.Fatalf("load scenario: %v", err)
	}
	return sc
}

// openStore opens the cell cache in dir, failing the test on error.
func openStore(t *testing.T, dir string) *cellcache.Store {
	t.Helper()
	store, err := cellcache.NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return store
}

// runShard runs shard index of count over the cell cache in dir.
func runShard(t *testing.T, sc *scenario.Scenario, index, count, workers int, dir string) {
	t.Helper()
	ssc := *sc
	ssc.Shard = &scenario.ShardSpec{Index: index, Count: count}
	if _, err := RunScenario(context.Background(), &ssc, shardOpts(workers, openStore(t, dir))); err != nil {
		t.Fatalf("shard %d/%d: %v", index, count, err)
	}
}

// copyEntries copies every cache entry file from src into dst: the way
// per-machine caches merge, since entries are content-addressed.
func copyEntries(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// artifacts writes res and returns its report, CSV and manifest, the
// manifest with its process-history fields normalized: the kernel-cache
// delta, the worker count and the cached-cell tallies.
func artifacts(t *testing.T, res *Result) (txt, csv, manifest string) {
	t.Helper()
	dir := t.TempDir()
	if err := res.WriteFiles(dir); err != nil {
		t.Fatalf("write: %v", err)
	}
	read := func(ext string) string {
		data, err := os.ReadFile(filepath.Join(dir, res.ID+ext))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	m := *res.Manifest
	m.Cache = obs.CacheDelta{}
	m.Workers = 0
	m.Phases = append([]obs.PhaseTally(nil), m.Phases...)
	for i := range m.Phases {
		m.Phases[i].Cached = 0
	}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return read(".txt"), read(".csv"), string(data)
}

// TestShardsMergeThroughCellCache is the shard guarantee: for every
// split count and worker count, the unsharded run over the cache the
// shards wrote reproduces a cold unsharded run's report and CSV byte for
// byte, and its manifest modulo process history, replaying every cell.
// With one shard's block missing from the cache, the unsharded run
// computes exactly that block and its output is still the same. It
// holds for a lambda-only scenario (strong-mobility) and for the delay
// scenarios, whose cells store their delay half alongside lambda.
func TestShardsMergeThroughCellCache(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	type want struct {
		sc                 *scenario.Scenario
		cells              int
		txt, csv, manifest string
	}
	var wants []want
	for _, name := range []string{"strong-mobility", "d2d-baseline", "handover-churn"} {
		sc := loadShipped(t, name)
		ref, err := RunScenario(context.Background(), sc, shardOpts(1, nil))
		if err != nil {
			t.Fatalf("%s: cold unsharded run: %v", name, err)
		}
		tot := ref.Manifest.Total()
		if tot.Cells != ref.Manifest.GridCells || tot.OK != tot.Cells {
			t.Fatalf("%s reference grid: %d cells, %d ok, want %d all ok", name, tot.Cells, tot.OK, ref.Manifest.GridCells)
		}
		txt, csv, manifest := artifacts(t, ref)
		wants = append(wants, want{sc, tot.Cells, txt, csv, manifest})
	}

	for k := 1; k <= 7; k++ {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("k=%d/workers=%d", k, workers), func(t *testing.T) {
				for _, w := range wants {
					t.Run(w.sc.Name, func(t *testing.T) {
						checkShardMerge(t, w.sc, k, workers, w.cells, w.txt, w.csv, w.manifest)
					})
				}
			})
		}
	}
}

// checkShardMerge splits sc's grid of cells k ways: every shard but one
// writes into partial, and full is a copy of partial plus the left-out
// shard. The unsharded run over each must match the cold reference.
func checkShardMerge(t *testing.T, sc *scenario.Scenario, k, workers, cells int, wantTxt, wantCSV, wantManifest string) {
	skip := k / 2
	partial, full := t.TempDir(), t.TempDir()
	for i := 0; i < k; i++ {
		if i != skip {
			runShard(t, sc, i, k, workers, partial)
		}
	}
	copyEntries(t, partial, full)
	runShard(t, sc, skip, k, workers, full)
	block := (skip+1)*cells/k - skip*cells/k

	for _, c := range []struct {
		name   string
		dir    string
		misses int
	}{{"all shards", full, 0}, {fmt.Sprintf("shard %d left out", skip), partial, block}} {
		res, err := RunScenario(context.Background(), sc, shardOpts(workers, openStore(t, c.dir)))
		if err != nil {
			t.Fatalf("%s: unsharded run: %v", c.name, err)
		}
		tot := res.Manifest.Total()
		if misses := tot.Cells - tot.Cached; misses != c.misses {
			t.Errorf("%s: %d cells computed, want %d", c.name, misses, c.misses)
		}
		txt, csv, manifest := artifacts(t, res)
		if txt != wantTxt {
			t.Errorf("%s: report differs from cold run:\n--- want\n%s\n--- got\n%s", c.name, wantTxt, txt)
		}
		if csv != wantCSV {
			t.Errorf("%s: CSV differs from cold run:\n--- want\n%s\n--- got\n%s", c.name, wantCSV, csv)
		}
		if manifest != wantManifest {
			t.Errorf("%s: manifest differs from cold run:\n--- want\n%s\n--- got\n%s", c.name, wantManifest, manifest)
		}
	}
}

// A sharded run without a cell cache would lose its cells, so it is
// refused before any cell runs.
func TestShardWithoutCellCacheRefused(t *testing.T) {
	sc := loadShipped(t, "strong-mobility")
	sc.Shard = &scenario.ShardSpec{Index: 0, Count: 3}
	rt := obs.NewRuntimeWith(nil, obs.NewRegistry())
	o := shardOpts(1, nil)
	o.Obs = rt
	res, err := RunScenario(context.Background(), sc, o)
	if !errors.Is(err, ErrShardNoCache) || res != nil {
		t.Fatalf("RunScenario = %v, %v; want ErrShardNoCache", res, err)
	}
	if tallies := rt.Tallies(); len(tallies) != 0 {
		t.Errorf("refused run evaluated cells: %+v", tallies)
	}
}
