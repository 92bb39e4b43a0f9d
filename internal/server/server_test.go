package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hybridcap/internal/blob"
	"hybridcap/internal/experiments"
	"hybridcap/internal/obs"
	"hybridcap/internal/scenario"
)

// testScenario builds a small, fast scenario; distinct names yield
// distinct content addresses.
func testScenario(t *testing.T, name string) (*scenario.Scenario, []byte) {
	t.Helper()
	js := fmt.Sprintf(`{
  "name": %q,
  "base": {"alpha": 0.7, "k": 0.6, "phi": 1, "m": 0.2, "r": 0.11},
  "sizes": [512],
  "schemes": ["schemeC"],
  "placement": "matched"
}`, name)
	sc, err := scenario.Parse([]byte(js))
	if err != nil {
		t.Fatalf("test scenario invalid: %v", err)
	}
	return sc, []byte(js)
}

func newTestServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		CacheDir: t.TempDir(),
		Workers:  2,
		Seeds:    1,
		Registry: obs.NewRegistry(),
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func postScenario(t *testing.T, ts *httptest.Server, body []byte) (Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return st, resp
}

func getBody(t *testing.T, ts *httptest.Server, path string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d (body %s)", path, resp.StatusCode, wantCode, data)
	}
	return data
}

// waitDone polls a run until it leaves the queued/running states.
func waitDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st Status
		if err := json.Unmarshal(getBody(t, ts, "/runs/"+id, http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued && st.State != StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in state %s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Submitting the same scenario twice must compute once and replay the
// exact bytes: the second response is marked cached, the cache-hit
// counter moves, and report and manifest are byte-identical.
func TestSubmitTwiceIsByteIdenticalCacheHit(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, body := testScenario(t, "svc-dup")

	st, resp := postScenario(t, ts, body)
	if resp.StatusCode != http.StatusAccepted || st.State != StateQueued || st.Cached {
		t.Fatalf("first submit: code %d, status %+v", resp.StatusCode, st)
	}
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("run finished %s: %s", final.State, final.Error)
	}
	report1 := getBody(t, ts, "/runs/"+st.ID+"/report", http.StatusOK)
	manifest1 := getBody(t, ts, "/runs/"+st.ID+"/manifest", http.StatusOK)
	if len(report1) == 0 || len(manifest1) == 0 {
		t.Fatal("empty artifacts from completed run")
	}

	st2, resp2 := postScenario(t, ts, body)
	if resp2.StatusCode != http.StatusOK || !st2.Cached || st2.State != StateDone {
		t.Fatalf("second submit: code %d, status %+v, want cached done", resp2.StatusCode, st2)
	}
	report2 := getBody(t, ts, "/runs/"+st.ID+"/report", http.StatusOK)
	manifest2 := getBody(t, ts, "/runs/"+st.ID+"/manifest", http.StatusOK)
	if !bytes.Equal(report1, report2) {
		t.Error("cached report differs from computed report")
	}
	if !bytes.Equal(manifest1, manifest2) {
		t.Error("cached manifest differs from computed manifest")
	}
	if hits := s.cacheHits.Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if ok := s.runsOK.Value(); ok != 1 {
		t.Errorf("runs ok = %d, want exactly one computation", ok)
	}
}

// The served result must be the same bytes RunScenario produces when
// called directly with the same options — the daemon adds transport,
// never a different computation. The manifest's kernel-cache delta is
// normalized before comparing: mobility's instance cache is process
// global, so whichever run goes second sees a warm cache. Everything
// else must match byte for byte.
func TestServedRunMatchesDirectRunScenario(t *testing.T) {
	sc, body := testScenario(t, "svc-direct")
	direct, err := experiments.RunScenario(context.Background(), sc, experiments.Options{
		Workers: 2,
		Seeds:   1,
		Obs:     obs.NewRuntimeWith(nil, obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	directManifest, err := direct.Manifest.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, _ := postScenario(t, ts, body)
	if final := waitDone(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("run finished %s: %s", final.State, final.Error)
	}
	report := getBody(t, ts, "/runs/"+st.ID+"/report", http.StatusOK)
	manifest := getBody(t, ts, "/runs/"+st.ID+"/manifest", http.StatusOK)

	if string(report) != direct.Text() {
		t.Errorf("served report differs from direct RunScenario:\n%s\nvs\n%s", report, direct.Text())
	}
	var servedMan, directMan obs.Manifest
	if err := json.Unmarshal(manifest, &servedMan); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(directManifest, &directMan); err != nil {
		t.Fatal(err)
	}
	servedMan.Cache = obs.CacheDelta{}
	directMan.Cache = obs.CacheDelta{}
	served, _ := servedMan.Marshal()
	want, _ := directMan.Marshal()
	if !bytes.Equal(served, want) {
		t.Errorf("served manifest differs from direct RunScenario:\n%s\nvs\n%s", served, want)
	}
}

// A corrupted cache entry must be evicted and the scenario recomputed,
// reproducing the original report bytes.
func TestCorruptCacheEntryRecomputed(t *testing.T) {
	dir := ""
	s := newTestServer(t, func(cfg *Config) { dir = cfg.CacheDir })
	ts := httptest.NewServer(s.Handler())
	_, body := testScenario(t, "svc-corrupt")
	st, _ := postScenario(t, ts, body)
	if final := waitDone(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("run finished %s: %s", final.State, final.Error)
	}
	report1 := getBody(t, ts, "/runs/"+st.ID+"/report", http.StatusOK)
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Truncate the entry on disk, then bring up a fresh daemon on the
	// same cache directory: the poisoned entry must not be served.
	path := filepath.Join(dir, st.ID+entrySuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, func(cfg *Config) { cfg.CacheDir = dir })
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	st2, resp2 := postScenario(t, ts2, body)
	if resp2.StatusCode != http.StatusAccepted || st2.Cached {
		t.Fatalf("corrupt entry served instead of recomputed: code %d, status %+v", resp2.StatusCode, st2)
	}
	if final := waitDone(t, ts2, st2.ID); final.State != StateDone {
		t.Fatalf("recompute finished %s: %s", final.State, final.Error)
	}
	if got := s2.cacheCorrupt.Value(); got == 0 {
		t.Error("corrupt-entry counter did not move")
	}
	// The evicted file and its recomputed replacement are one entry.
	if got := s2.cacheEntries.Value(); got != 1 {
		t.Errorf("cache_entries = %d, want 1", got)
	}
	report2 := getBody(t, ts2, "/runs/"+st2.ID+"/report", http.StatusOK)
	if !bytes.Equal(report1, report2) {
		t.Error("recomputed report differs from the original")
	}
	if _, evicted, err := s2.Store().Get(st.ID); err != nil || evicted {
		t.Errorf("recomputed entry not healthy on disk: evicted=%v err=%v", evicted, err)
	}
}

// A run canceled by its deadline must finish in the canceled state and
// leave nothing in the result cache — partial grids are never poison
// for future identical submissions.
func TestCanceledRunStoresNothing(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) { cfg.RunTimeout = time.Nanosecond })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, body := testScenario(t, "svc-canceled")
	st, _ := postScenario(t, ts, body)
	final := waitDone(t, ts, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("run finished %s (%s), want canceled", final.State, final.Error)
	}
	if _, _, err := s.Store().Get(st.ID); !errors.Is(err, blob.ErrMiss) {
		t.Errorf("canceled run left a cache entry: %v", err)
	}
	if n, _ := s.Store().Len(); n != 0 {
		t.Errorf("cache holds %d entries after canceled run", n)
	}
	if got := s.runsCanceled.Value(); got != 1 {
		t.Errorf("runs canceled = %d, want 1", got)
	}
	getBody(t, ts, "/runs/"+st.ID+"/report", http.StatusConflict)
}

// DELETE on a queued run cancels it before it ever executes.
func TestClientAbortQueuedRun(t *testing.T) {
	// No executors: the run stays queued until we cancel it.
	s, err := newServer(Config{CacheDir: t.TempDir(), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := testScenario(t, "svc-abort")
	hash, err := sc.SHA256()
	if err != nil {
		t.Fatal(err)
	}
	if st, code := s.submit(sc, hash); code != http.StatusAccepted || st.State != StateQueued {
		t.Fatalf("submit: %d %+v", code, st)
	}
	if st, code := s.cancelRun(hash); code != http.StatusAccepted || st.State != StateQueued {
		t.Fatalf("cancel: %d %+v", code, st)
	}
	// Now run the executor over the closed queue: the canceled run must
	// finalize as canceled without executing.
	s.mu.Lock()
	close(s.queue)
	s.mu.Unlock()
	s.wg.Add(1)
	s.executor()
	s.mu.Lock()
	state := s.runs[hash].state
	s.mu.Unlock()
	if state != StateCanceled {
		t.Errorf("aborted run finalized as %s, want canceled", state)
	}
	if n, _ := s.Store().Len(); n != 0 {
		t.Errorf("aborted run left %d cache entries", n)
	}
}

// With the queue full, further distinct submissions are shed with 429
// and a Retry-After hint; identical submissions still dedupe onto the
// queued run instead of being shed.
func TestAdmissionQueueShedsWhenFull(t *testing.T) {
	// Built without executors so the queue genuinely fills.
	s, err := newServer(Config{CacheDir: t.TempDir(), MaxQueue: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, bodyA := testScenario(t, "svc-shed-a")
	if st, resp := postScenario(t, ts, bodyA); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit shed: %d %+v", resp.StatusCode, st)
	}
	stA2, respA2 := postScenario(t, ts, bodyA)
	if respA2.StatusCode != http.StatusOK || stA2.State != StateQueued {
		t.Fatalf("duplicate of queued run not deduped: %d %+v", respA2.StatusCode, stA2)
	}

	_, bodyB := testScenario(t, "svc-shed-b")
	stB, respB := postScenario(t, ts, bodyB)
	if respB.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %+v, want 429", respB.StatusCode, stB)
	}
	if ra := respB.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After")
	}
	if got := s.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	if got := s.dedup.Value(); got != 1 {
		t.Errorf("dedup counter = %d, want 1", got)
	}
	// The shed scenario was never admitted: submitting it again after
	// space frees must be possible (no poisoned bookkeeping).
	s.mu.Lock()
	if _, ok := s.runs[stB.ID]; ok {
		t.Error("shed run left bookkeeping behind")
	}
	s.mu.Unlock()
}

// Shutdown stops admission (503 + readyz unready) and drains in-flight
// work; results completed during the drain land in the cache.
func TestShutdownDrainsAndRejects(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, body := testScenario(t, "svc-drain")
	st, _ := postScenario(t, ts, body)

	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	s.mu.Lock()
	state := s.runs[st.ID].state
	s.mu.Unlock()
	if state != StateDone {
		t.Fatalf("drained run state %s, want done", state)
	}
	if _, evicted, err := s.Store().Get(st.ID); err != nil || evicted {
		t.Errorf("drained result not flushed to cache: evicted=%v err=%v", evicted, err)
	}

	if _, resp := postScenario(t, ts, body); resp.StatusCode != http.StatusOK {
		// The completed run is still served from memory even while
		// draining: reads stay up, only new work is refused.
		t.Errorf("completed run not served while draining: %d", resp.StatusCode)
	}
	_, bodyNew := testScenario(t, "svc-drain-new")
	if _, resp := postScenario(t, ts, bodyNew); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new submission while draining: %d, want 503", resp.StatusCode)
	}
	rz := getBody(t, ts, "/readyz", http.StatusServiceUnavailable)
	if !strings.Contains(string(rz), `"draining": true`) {
		t.Errorf("readyz while draining: %s", rz)
	}
}

// A fresh daemon on an existing cache directory serves prior results
// without recomputation: restart is resume.
func TestRestartServesExistingCache(t *testing.T) {
	dir := ""
	s := newTestServer(t, func(cfg *Config) { dir = cfg.CacheDir })
	ts := httptest.NewServer(s.Handler())
	_, body := testScenario(t, "svc-restart")
	st, _ := postScenario(t, ts, body)
	if final := waitDone(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("run finished %s: %s", final.State, final.Error)
	}
	report1 := getBody(t, ts, "/runs/"+st.ID+"/report", http.StatusOK)
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, func(cfg *Config) { cfg.CacheDir = dir })
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if got := s2.cacheEntries.Value(); got != 1 {
		t.Errorf("restarted daemon indexed %d cache entries, want 1", got)
	}
	// Artifact fetch by id works without resubmission (disk fallback).
	report2 := getBody(t, ts2, "/runs/"+st.ID+"/report", http.StatusOK)
	if !bytes.Equal(report1, report2) {
		t.Error("restarted daemon served different report bytes")
	}
	st2, resp2 := postScenario(t, ts2, body)
	if resp2.StatusCode != http.StatusOK || !st2.Cached {
		t.Fatalf("resubmission after restart not a cache hit: %d %+v", resp2.StatusCode, st2)
	}
	if got := s2.runsOK.Value(); got != 0 {
		t.Errorf("restarted daemon recomputed %d runs, want 0", got)
	}
}

// A panicking handler answers 500 and the process survives.
func TestHandlerPanicIsolated(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.recoverWrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler answered %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "handler bug") {
		t.Errorf("panic detail lost: %s", rec.Body.String())
	}
	if got := s.handlerPanics.Value(); got != 1 {
		t.Errorf("handler panic counter = %d, want 1", got)
	}
}

// Malformed and oversized submissions are rejected at the door.
func TestSubmitRejectsBadInput(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, valid := testScenario(t, "torn")
	for name, body := range map[string][]byte{
		"trailing bytes": append(valid, []byte(`{"name": 9, garbage`)...),
		"not json":       []byte("not json"),
		"unknown field":  []byte(`{"name":"x","bogus":1}`),
		"invalid config": []byte(`{"name":"x","sizes":[512],"schemes":["nope"],"placement":"matched"}`),
		"oversized":      []byte(`{"pad":"` + strings.Repeat("x", maxScenarioBytes+1) + `"}`),
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, resp.StatusCode)
		}
	}
	if got := s.submitted.Value(); got != 0 {
		t.Errorf("rejected submissions counted as admitted: %d", got)
	}
	if got := len(s.queue); got != 0 {
		t.Errorf("rejected submissions enqueued: %d", got)
	}
}

// A sharded scenario stores its cells only in the cell cache, so a
// daemon without one fails the run with RunScenario's refusal, before
// any cell runs; with a cell cache the same submission completes.
func TestShardedRunNeedsCellCache(t *testing.T) {
	body := []byte(`{
  "name": "svc-shard",
  "base": {"alpha": 0.7, "k": 0.6, "phi": 1, "m": 0.2, "r": 0.11},
  "sizes": [512, 1024],
  "schemes": ["schemeC"],
  "placement": "matched",
  "shard": {"index": 0, "count": 2}
}`)
	for _, withCache := range []bool{false, true} {
		s := newTestServer(t, func(c *Config) {
			if withCache {
				c.CellCacheDir = t.TempDir()
			}
		})
		ts := httptest.NewServer(s.Handler())
		st, resp := postScenario(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cell cache %v: submit code %d, status %+v", withCache, resp.StatusCode, st)
		}
		final := waitDone(t, ts, st.ID)
		ts.Close()
		if withCache {
			if final.State != StateDone {
				t.Errorf("with a cell cache: run %s: %s", final.State, final.Error)
			}
			continue
		}
		if final.State != StateFailed || !strings.Contains(final.Error, experiments.ErrShardNoCache.Error()) {
			t.Errorf("without a cell cache: run %s (%q), want failed with %q", final.State, final.Error, experiments.ErrShardNoCache)
		}
		if n, err := s.Store().Len(); err != nil || n != 0 {
			t.Errorf("failed run stored %d result-cache entries (%v)", n, err)
		}
	}
}
