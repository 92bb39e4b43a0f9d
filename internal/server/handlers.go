package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"

	"hybridcap/internal/obs"
	"hybridcap/internal/routing"
	"hybridcap/internal/scenario"
)

// maxScenarioBytes bounds a submission body; scenario specs are small,
// so anything larger is a malformed or hostile request, not a run.
const maxScenarioBytes = 1 << 20

// Handler returns the daemon's HTTP handler: the run endpoints plus the
// observability surface (/metrics, /debug/vars, /debug/pprof) folded
// into one mux, all behind a recover layer so a panicking handler
// answers 500 instead of killing its connection — or the process.
func (s *Server) Handler() http.Handler { return s.recoverWrap(s.mux) }

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /runs/{id}/report", s.handleArtifact("report"))
	mux.HandleFunc("GET /runs/{id}/manifest", s.handleArtifact("manifest"))
	mux.HandleFunc("GET /runs/{id}/scenario", s.handleArtifact("scenario"))
	mux.HandleFunc("GET /schemes", s.handleSchemes)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)

	obs.PublishExpvar("hybridcap", s.cfg.Registry)
	mux.Handle("GET /metrics", s.cfg.Registry.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// recoverWrap is the server-level crash isolation: whatever a handler
// (or anything it calls) panics with, the process survives and the
// client gets a 500.
func (s *Server) recoverWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.handlerPanics.Inc()
				writeJSON(w, http.StatusInternalServerError,
					map[string]string{"error": fmt.Sprintf("internal error: %v", p)})
			}
		}()
		next.ServeHTTP(w, req)
	})
}

// writeJSON renders v with a status code. Map values are only used for
// error shapes; run statuses are fixed structs.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The client may be gone; there is no one left to tell.
	_ = enc.Encode(v)
}

// handleSubmit is POST /runs: parse and validate the scenario, content-
// address it, and either serve the memoized result, dedupe onto the
// identical in-flight run, enqueue, or shed.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxScenarioBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("read body: %v", err)})
		return
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		// A poisoned scenario is rejected at the door: it never reaches
		// the queue, let alone the engine.
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	hash, err := sc.SHA256()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	st, code := s.submit(sc, hash)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.cfg.RetryAfterSeconds))
	}
	writeJSON(w, code, st)
}

// schemeInfo is one row of GET /schemes.
type schemeInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// handleSchemes is GET /schemes: the routing scheme registry in
// presentation order, so clients can discover valid scenario scheme
// sets without a round trip through a rejected submission.
func (s *Server) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	names := routing.Names()
	list := make([]schemeInfo, len(names))
	for i, name := range names {
		list[i] = schemeInfo{Name: name, Description: routing.Description(name)}
	}
	writeJSON(w, http.StatusOK, list)
}

// handleList is GET /runs: every known run's status, sorted by id for a
// deterministic listing.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	statuses := make([]Status, 0, len(s.runs))
	for _, r := range s.runs {
		statuses = append(statuses, s.statusLocked(r))
	}
	s.mu.Unlock()
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].ID < statuses[j].ID })
	writeJSON(w, http.StatusOK, statuses)
}

// handleStatus is GET /runs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r, ok := s.lookup(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown run " + id})
		return
	}
	s.mu.Lock()
	st := s.statusLocked(r)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleCancel is DELETE /runs/{id}: client abort for a queued or
// running run.
func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	st, code := s.cancelRun(req.PathValue("id"))
	writeJSON(w, code, st)
}

// handleArtifact serves a completed run's bytes: the report text, the
// manifest JSON, or the canonical scenario JSON — exactly the bytes the
// run produced (or the cache replayed), never a re-rendering.
func (s *Server) handleArtifact(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("id")
		r, ok := s.lookup(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown run " + id})
			return
		}
		s.mu.Lock()
		state := r.state
		var data []byte
		var ctype string
		switch kind {
		case "report":
			data, ctype = r.report, "text/plain; charset=utf-8"
		case "manifest":
			data, ctype = r.manifest, "application/json"
		case "scenario":
			data, ctype = r.scenarioJS, "application/json"
		}
		s.mu.Unlock()
		if state != StateDone {
			writeJSON(w, http.StatusConflict, map[string]string{
				"error": fmt.Sprintf("run %s is %s, artifacts exist only for completed runs", id, state)})
			return
		}
		w.Header().Set("Content-Type", ctype)
		// Mid-write client loss has no further consumer for the error.
		_, _ = w.Write(data)
	}
}

// handleHealthz is liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// readyzStatus is the JSON body of /readyz — queue visibility for load
// balancers and the smoke tests.
type readyzStatus struct {
	Ready         bool `json:"ready"`
	Draining      bool `json:"draining"`
	QueueDepth    int  `json:"queue_depth"`
	QueueCapacity int  `json:"queue_capacity"`
	Running       int  `json:"running"`
	MaxConcurrent int  `json:"max_concurrent"`
	CacheEntries  int  `json:"cache_entries"`
}

// handleReadyz is readiness: 200 while admitting, 503 once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	st := readyzStatus{
		Ready:         !draining,
		Draining:      draining,
		QueueDepth:    int(s.queueDepth.Value()),
		QueueCapacity: s.cfg.MaxQueue,
		Running:       int(s.running.Value()),
		MaxConcurrent: s.cfg.MaxConcurrent,
		CacheEntries:  int(s.cacheEntries.Value()),
	}
	code := http.StatusOK
	if draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}
