// Package server is the scenario service: a long-running daemon that
// accepts declarative scenario submissions over HTTP, executes them
// through the exact RunScenario path the CLI uses, and serves results
// by run id. Robustness is the load-bearing design:
//
//   - admission is a bounded queue with explicit load shedding (429 +
//     Retry-After when full) and a max-concurrent-runs gate, so
//     overload degrades instead of growing without bound;
//   - every run is content-addressed by the scenario's canonical
//     sha256 and memoized in an on-disk result cache with atomic
//     temp-file+rename persistence — identical submissions are served
//     byte-identically without recomputation, and reloading the cache
//     directory on restart is the daemon's checkpoint/resume;
//   - cancellation is threaded through the engine: per-run deadlines,
//     client aborts and shutdown stop scheduling grid cells promptly,
//     and a canceled run never writes a partial result into the cache;
//   - one poisoned scenario cannot take the process down: the engine
//     converts cell panics to errors, the executor recovers around the
//     whole run, and the HTTP layer recovers around every handler.
//
// All run bookkeeping timestamps flow through an injected obs.Clock —
// the daemon itself never reads the wall clock, so the hybridlint
// nondeterminism gate applies to this package too.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"hybridcap/internal/blob"
	"hybridcap/internal/cellcache"
	"hybridcap/internal/experiments"
	"hybridcap/internal/obs"
	"hybridcap/internal/scenario"
)

// Run states reported by the status endpoints.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Config tunes the daemon. The zero value is not runnable: CacheDir is
// required, and New applies the documented defaults to the rest.
type Config struct {
	// CacheDir is the result cache directory (required). Entries are
	// one file per scenario hash; see Store.
	CacheDir string
	// CellCacheDir, if set, opens a persistent cell-result cache shared
	// by every run the daemon executes: scenario sweeps replay
	// previously computed grid cells across submissions and restarts,
	// so two scenarios sharing a regime (or a resubmission after a cache
	// eviction) only pay for the cells that actually changed. Empty
	// disables cell caching; run results are byte-identical either way.
	CellCacheDir string
	// MaxQueue bounds the admission queue; a full queue sheds load with
	// 429 + Retry-After. 0 selects 16.
	MaxQueue int
	// MaxConcurrent gates how many runs execute at once. 0 selects 2.
	MaxConcurrent int
	// RunTimeout is the per-run deadline; 0 disables it.
	RunTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: runs still in flight when
	// it expires are canceled rather than awaited. 0 selects 30s.
	DrainTimeout time.Duration
	// RetryAfterSeconds is the Retry-After hint on shed responses.
	// 0 selects 5.
	RetryAfterSeconds int
	// Workers, Seeds and Quick are the experiment options every run
	// executes under (the same knobs as the CLI, so served results are
	// byte-identical to `capsim -scenario`).
	Workers int
	Seeds   int
	Quick   bool
	// Clock stamps run bookkeeping (submitted/started/finished). Nil
	// freezes time at obs.Epoch, keeping an uninjected daemon
	// deterministic instead of silently reading the wall clock.
	Clock obs.Clock
	// Registry receives the daemon's metrics. Nil selects the
	// process-default registry.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 5
	}
	if c.Clock == nil {
		c.Clock = obs.NewFrozenClock(obs.Epoch)
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// Status is the JSON shape of one run as reported by the submit and
// status endpoints. A fixed struct (no maps) keeps the encoding
// deterministic.
type Status struct {
	// ID is the run id: the scenario's canonical sha256.
	ID string `json:"id"`
	// Name is the scenario name.
	Name string `json:"name"`
	// State is one of queued, running, done, failed, canceled.
	State string `json:"state"`
	// Cached reports whether this response was satisfied from the
	// result cache (or an already-completed identical run) instead of
	// scheduling new work.
	Cached bool `json:"cached"`
	// Error carries the failure message of a failed or canceled run.
	Error string `json:"error,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt are bookkeeping stamps from the
	// injected clock, RFC3339Nano in UTC.
	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

// run is the in-memory record of one submission.
type run struct {
	id     string
	sc     *scenario.Scenario
	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{}

	// Guarded by Server.mu.
	state       string
	errMsg      string
	cached      bool
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	report      []byte
	manifest    []byte
	scenarioJS  []byte
}

// Server is the scenario daemon. Construct with New, serve with
// ListenAndServe (or mount Handler on a listener of your own), stop
// with Shutdown.
type Server struct {
	cfg       Config
	store     *Store
	cellStore *cellcache.Store
	mux       *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *run
	wg    sync.WaitGroup

	mu       sync.Mutex
	runs     map[string]*run
	draining bool

	submitted, dedup, cacheHits, cacheMisses *obs.Counter
	cacheCorrupt, shed, handlerPanics        *obs.Counter
	runsOK, runsFailed, runsCanceled         *obs.Counter
	queueDepth, running, cacheEntries        *obs.Gauge
}

// New opens the result cache, registers the daemon's metrics, reloads
// the cache index (restart = resume: every previously completed run is
// immediately servable), and starts the executor pool.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	s.wg.Add(s.cfg.MaxConcurrent)
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		go s.executor()
	}
	return s, nil
}

// newServer builds the daemon without starting its executor pool; tests
// use it to exercise admission with a deliberately stalled queue.
func newServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := NewStore(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	var cellStore *cellcache.Store
	if cfg.CellCacheDir != "" {
		if cellStore, err = cellcache.NewStore(cfg.CellCacheDir); err != nil {
			return nil, err
		}
	}
	entries, err := store.Len()
	if err != nil {
		return nil, err
	}
	reg := cfg.Registry
	//lint:ignore ctxflow the daemon's base context is the process-lifetime root; Close cancels it, and request contexts derive from it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      store,
		cellStore:  cellStore,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *run, cfg.MaxQueue),
		runs:       make(map[string]*run),

		submitted:     reg.Counter("server_submitted_total"),
		dedup:         reg.Counter("server_dedup_inflight_total"),
		cacheHits:     reg.Counter("server_cache_hits_total"),
		cacheMisses:   reg.Counter("server_cache_misses_total"),
		cacheCorrupt:  reg.Counter("server_cache_corrupt_total"),
		shed:          reg.Counter("server_shed_total"),
		handlerPanics: reg.Counter("server_handler_panics_total"),
		runsOK:        reg.Counter("server_runs_ok_total"),
		runsFailed:    reg.Counter("server_runs_failed_total"),
		runsCanceled:  reg.Counter("server_runs_canceled_total"),
		queueDepth:    reg.Gauge("server_queue_depth"),
		running:       reg.Gauge("server_running"),
		cacheEntries:  reg.Gauge("server_cache_entries"),
	}
	s.cacheEntries.Set(int64(entries))
	s.mux = s.buildMux()
	return s, nil
}

// Store exposes the result cache, primarily for tests and tooling.
func (s *Server) Store() *Store { return s.store }

// stamp renders a bookkeeping time, "" for the zero time.
func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// statusLocked snapshots a run's status; the caller holds s.mu.
func (s *Server) statusLocked(r *run) Status {
	return Status{
		ID:          r.id,
		Name:        r.sc.Name,
		State:       r.state,
		Cached:      r.cached,
		Error:       r.errMsg,
		SubmittedAt: stamp(r.submittedAt),
		StartedAt:   stamp(r.startedAt),
		FinishedAt:  stamp(r.finishedAt),
	}
}

// submit admits one parsed scenario and returns the response status
// plus HTTP code. The whole decision — duplicate detection, cache
// lookup, admission or shedding — happens under one lock, so identical
// concurrent submissions dedupe instead of racing into the queue.
func (s *Server) submit(sc *scenario.Scenario, hash string) (Status, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.submitted.Inc()

	if r, ok := s.runs[hash]; ok {
		st := s.statusLocked(r)
		if r.state == StateDone {
			// An identical completed run satisfies the submission
			// without new work: that is a cache hit even when the bytes
			// are still in memory.
			s.cacheHits.Inc()
			st.Cached = true
			return st, http.StatusOK
		}
		s.dedup.Inc()
		return st, http.StatusOK
	}

	if e, evicted, err := s.store.Get(hash); err == nil {
		r := s.insertCachedLocked(e)
		s.cacheHits.Inc()
		return s.statusLocked(r), http.StatusOK
	} else if evicted {
		s.cacheCorrupt.Inc()
		s.cacheEntries.Add(-1)
	} else if !errors.Is(err, blob.ErrMiss) && !errors.Is(err, blob.ErrCorrupt) {
		return Status{ID: hash, Name: sc.Name, State: StateFailed, Error: err.Error()},
			http.StatusInternalServerError
	}
	s.cacheMisses.Inc()

	if s.draining {
		return Status{ID: hash, Name: sc.Name, State: StateCanceled, Error: "server is shutting down"},
			http.StatusServiceUnavailable
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	r := &run{
		id:          hash,
		sc:          sc,
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		state:       StateQueued,
		submittedAt: s.cfg.Clock.Now(),
	}
	select {
	case s.queue <- r:
		s.runs[hash] = r
		s.queueDepth.Add(1)
		return s.statusLocked(r), http.StatusAccepted
	default:
		cancel()
		s.shed.Inc()
		return Status{ID: hash, Name: sc.Name, State: StateCanceled, Error: "admission queue full"},
			http.StatusTooManyRequests
	}
}

// insertCachedLocked materializes a completed run from a validated
// cache entry; the caller holds s.mu.
func (s *Server) insertCachedLocked(e *Entry) *run {
	sc, err := scenario.Parse([]byte(e.Scenario))
	if err != nil {
		// The entry validated against its hash, so the stored scenario
		// is canonical and must parse; a failure here means the
		// validation contract itself broke.
		sc = &scenario.Scenario{Name: "(unparsable cached scenario)"}
	}
	r := &run{
		id:         e.ScenarioSHA256,
		sc:         sc,
		done:       make(chan struct{}),
		state:      StateDone,
		cached:     true,
		report:     []byte(e.Report),
		manifest:   []byte(e.Manifest),
		scenarioJS: []byte(e.Scenario),
	}
	close(r.done)
	s.runs[e.ScenarioSHA256] = r
	return r
}

// lookup finds a run by id, falling back to the on-disk cache (the
// restart path: results from a previous process are servable without
// resubmission). A corrupt entry found this way is evicted and reported
// as absent.
func (s *Server) lookup(id string) (*run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runs[id]; ok {
		return r, true
	}
	if !blob.ValidKey(id) {
		return nil, false
	}
	e, evicted, err := s.store.Get(id)
	if err != nil {
		if evicted {
			s.cacheCorrupt.Inc()
			s.cacheEntries.Add(-1)
		}
		return nil, false
	}
	return s.insertCachedLocked(e), true
}

// cancelRun cancels a queued or running run by id.
func (s *Server) cancelRun(id string) (Status, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return Status{ID: id, State: StateFailed, Error: "unknown run"}, http.StatusNotFound
	}
	switch r.state {
	case StateQueued, StateRunning:
		r.cancel()
		// The executor observes the canceled context and finalizes the
		// state; a queued run flips immediately when dequeued.
		return s.statusLocked(r), http.StatusAccepted
	default:
		return s.statusLocked(r), http.StatusConflict
	}
}

// executor consumes the admission queue until it is closed (shutdown)
// and drained.
func (s *Server) executor() {
	defer s.wg.Done()
	for r := range s.queue {
		s.queueDepth.Add(-1)
		s.execute(r)
	}
}

// execute runs one admitted scenario to completion: deadline applied,
// panics contained, result persisted atomically, state finalized. A
// canceled or failed run stores nothing.
func (s *Server) execute(r *run) {
	if err := r.ctx.Err(); err != nil {
		s.finalize(r, nil, fmt.Errorf("canceled before start: %w", err))
		return
	}
	s.mu.Lock()
	r.state = StateRunning
	r.startedAt = s.cfg.Clock.Now()
	s.mu.Unlock()
	s.running.Add(1)
	defer s.running.Add(-1)

	ctx := r.ctx
	if s.cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RunTimeout)
		defer cancel()
	}
	res, err := s.runScenario(ctx, r.sc)
	if err == nil && ctx.Err() != nil {
		// Belt and braces: a run that raced its own cancellation must
		// not be treated as complete.
		err = ctx.Err()
	}
	s.finalize(r, res, err)
}

// runScenario executes the scenario through the same RunScenario path
// as the CLI — that identity is what makes the result cache sound —
// with a recover so a panic anywhere in the run isolates to this run.
func (s *Server) runScenario(ctx context.Context, sc *scenario.Scenario) (res *experiments.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("server: run panicked: %v", p)
		}
	}()
	rt := obs.NewRuntimeWith(s.cfg.Clock, s.cfg.Registry)
	o := experiments.Options{
		Quick:     s.cfg.Quick,
		Seeds:     s.cfg.Seeds,
		Workers:   s.cfg.Workers,
		Obs:       rt,
		CellCache: s.cellStore,
	}
	return experiments.RunScenario(ctx, sc, o)
}

// finalize records a run's outcome and, on success only, persists it to
// the result cache. The persisted bytes are exactly what status/report/
// manifest serve, so replay is byte-identical by construction.
func (s *Server) finalize(r *run, res *experiments.Result, err error) {
	state := StateDone
	var report, manifest, scenarioJS []byte
	if err == nil {
		report = []byte(res.Text())
		if res.Manifest == nil {
			err = fmt.Errorf("server: run %s produced no manifest", r.id)
		} else if manifest, err = res.Manifest.Marshal(); err == nil {
			scenarioJS, err = r.sc.Marshal()
		}
	}
	if err != nil {
		state = StateFailed
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			state = StateCanceled
		}
	}

	if state == StateDone {
		e := &Entry{
			ScenarioSHA256: r.id,
			Scenario:       string(scenarioJS),
			Report:         string(report),
			Manifest:       string(manifest),
		}
		if perr := s.store.Put(e); perr != nil {
			// The run itself succeeded; losing persistence degrades the
			// cache, not the response.
			s.cacheCorrupt.Inc()
		} else {
			s.cacheEntries.Add(1)
		}
	}

	s.mu.Lock()
	r.state = state
	if err != nil {
		r.errMsg = err.Error()
	}
	r.report = report
	r.manifest = manifest
	r.scenarioJS = scenarioJS
	r.finishedAt = s.cfg.Clock.Now()
	s.mu.Unlock()
	switch state {
	case StateDone:
		s.runsOK.Inc()
	case StateCanceled:
		s.runsCanceled.Inc()
	default:
		s.runsFailed.Inc()
	}
	close(r.done)
}

// Shutdown drains the daemon: admission stops immediately (readyz goes
// unready, new submissions get 503), queued and running work is given
// until ctx expires to finish, then every remaining run is canceled and
// awaited. Results completed during the drain are flushed to the cache
// as usual. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Deadline passed: cancel everything still in flight and wait
		// for the (now prompt) unwind.
		s.baseCancel()
		<-done
		return fmt.Errorf("server: drain deadline exceeded, in-flight runs canceled: %w", ctx.Err())
	}
}

// ListenAndServe serves the daemon on addr until ctx is canceled
// (typically by SIGINT/SIGTERM), then shuts down gracefully within the
// configured drain timeout. A listener that fails to come up — or dies
// later — surfaces as the returned error instead of being dropped.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() {
		//lint:ignore goroleak,ctxflow Serve returns exactly once into a cap-1 buffer, so the send never blocks and needs no Done arm
		serveErr <- hs.Serve(ln)
	}()
	select {
	case err := <-serveErr:
		return fmt.Errorf("server: serve %s: %w", addr, err)
	case <-ctx.Done():
	}
	// Drain under the caller's values but not its cancellation: ctx is
	// already done here (that is what triggered shutdown), so deriving
	// the drain deadline from it directly would cancel the drain
	// immediately instead of giving it DrainTimeout to finish.
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.DrainTimeout)
	defer cancel()
	drainErr := s.Shutdown(dctx)
	httpErr := hs.Shutdown(dctx)
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(drainErr, httpErr)
}
