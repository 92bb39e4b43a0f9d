package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hybridcap/internal/cellcache"
	"hybridcap/internal/experiments"
	"hybridcap/internal/obs"
	"hybridcap/internal/rng"
	"hybridcap/internal/scenario"
	"hybridcap/internal/server"
)

const (
	// serveRequests is the length of one round's request sequence.
	serveRequests = 120
	// serveRepeatShare is the share of requests that repeat an earlier
	// one.
	serveRepeatShare = 0.3
	// serveSeeds is the daemon's seeds per grid point.
	serveSeeds = 2
	// serveWindow is how many sizes a variant sweeps; serveFirstSize and
	// serveStep lay out the size ladder the windows slide along.
	serveWindow, serveFirstSize, serveStep = 3, 128, 32
	// serveWindows is how many windows of its ladder each example
	// scenario has. Few enough that most requests are result-cache hits
	// (about two thirds, counting the repeats), so the median request is
	// a hit and the computing runs make the tail.
	serveWindows = 5
)

// variant is one scenario a client may submit.
type variant struct {
	sc   *scenario.Scenario
	body []byte
	id   string
}

// serveMix is a closed loop of clients against an in-process daemon
// over loopback HTTP. Each round starts a fresh daemon on fresh result
// and cell cache directories and replays the same seeded request
// sequence: every client submits (POST /runs), polls GET /runs/{id}
// until the run ends and fetches the report, then takes the next
// request.
type serveMix struct {
	cfg      config
	variants []variant
	seq      []int
	// served holds the first report served per variant id; every later
	// response and the direct reference run must equal it.
	served map[string][]byte
	counts map[string]int
	// Server-side figures of the traced rounds.
	traced []serveRequest
	cache  cellcache.Stats
}

// serveRequest is one client request's outcome.
type serveRequest struct {
	id                 string
	lat, post, report  time.Duration
	polls              int
	accepted, cached   bool
	shed               bool
	queueWait, runTime time.Duration
	body               []byte
	err                error
}

// newServeMix builds the variants and the request sequence. Variant k
// of an example scenario differs from it only in its sizes: window k of
// a fixed size ladder. Each example's variants are requested in ladder
// order, so every fresh run reads the cells of the sizes it shares with
// the one before and computes and writes the cells of one new size.
// The seed only orders the requests and picks the repeats, so every
// seed asks for nearly the same work.
func newServeMix(cfg config) (*serveMix, error) {
	m := &serveMix{cfg: cfg, served: map[string][]byte{}, counts: map[string]int{}}
	files, err := filepath.Glob(filepath.Join("examples", "scenarios", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, errors.New("no example scenarios under examples/scenarios")
	}
	requests := serveRequests
	if cfg.tiny {
		requests = 24
	}
	perBase := serveWindows
	if cfg.tiny {
		perBase = 2
	}
	r := rng.New(cfg.seed).Derive("serve-mix").Rand()
	for _, f := range files {
		base, err := scenario.Load(f)
		if err != nil {
			return nil, err
		}
		for k := 0; k < perBase; k++ {
			sc := *base
			sc.QuickSizes, sc.Shard, sc.Sizes = nil, nil, nil
			for j := 0; j < serveWindow; j++ {
				sc.Sizes = append(sc.Sizes, serveFirstSize+serveStep*(k+j))
			}
			body, err := sc.Marshal()
			if err != nil {
				return nil, err
			}
			id, err := sc.SHA256()
			if err != nil {
				return nil, err
			}
			m.variants = append(m.variants, variant{sc: &sc, body: body, id: id})
		}
	}
	m.seq = requestSequence(r, len(files), perBase, requests)
	return m, nil
}

// repeats is how many of a round's requests repeat an earlier one.
func repeats(requests int) int { return int(serveRepeatShare * float64(requests)) }

// requestSequence draws the request mix over bases x perBase variants
// (base-major). A seeded set of repeats(requests) positions after the
// first repeats an earlier request picked at random; the other requests
// are dealt round-robin over the bases in a seeded order, each base's
// variants in ladder order and then again from the start, when they are
// result-cache hits too. Every seed thus gives each example scenario
// the same number of fresh runs.
func requestSequence(r *rand.Rand, bases, perBase, requests int) []int {
	repeat := make([]bool, requests)
	for _, i := range r.Perm(requests - 1)[:repeats(requests)] {
		repeat[i+1] = true
	}
	next := make([]int, bases)
	var order, seq []int
	for i := 0; i < requests; i++ {
		if repeat[i] {
			seq = append(seq, seq[r.Intn(len(seq))])
			continue
		}
		if len(order) == 0 {
			order = r.Perm(bases)
		}
		b := order[0]
		order = order[1:]
		seq = append(seq, b*perBase+next[b])
		next[b] = (next[b] + 1) % perBase
	}
	return seq
}

// setup runs one untimed warm round on the first few requests.
func (m *serveMix) setup(ctx context.Context) error {
	_, reqs, err := m.round(ctx, nil, m.seq[:min(len(m.seq), 16)])
	if err != nil {
		return err
	}
	for _, r := range reqs {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

func (m *serveMix) pass(ctx context.Context, rec *recorder) (passStats, error) {
	var ps passStats
	before := cellcache.ReadStats()
	wall, reqs, err := m.round(ctx, rec, m.seq)
	if err != nil {
		return ps, err
	}
	after := cellcache.ReadStats()
	ps.wall = wall
	for _, r := range reqs {
		ps.ops++
		ps.lat = append(ps.lat, r.lat)
		if r.err != nil {
			ps.failed++
			ps.problems = append(ps.problems, r.err.Error())
			continue
		}
		m.counts[r.id]++
		if first, ok := m.served[r.id]; !ok {
			m.served[r.id] = r.body
		} else if !bytes.Equal(first, r.body) {
			ps.failed++
			ps.problems = append(ps.problems, fmt.Sprintf("run %s: served report differs from the first one served", r.id[:12]))
		}
	}
	if rec != nil {
		m.traced = append(m.traced, reqs...)
		m.cache.Hits += after.Hits - before.Hits
		m.cache.Misses += after.Misses - before.Misses
		m.cache.Evictions += after.Evictions - before.Evictions
	}
	return ps, nil
}

// round starts a fresh daemon, plays seq with cfg.clients closed-loop
// clients and stops the daemon. The returned wall covers the requests
// only.
func (m *serveMix) round(ctx context.Context, rec *recorder, seq []int) (time.Duration, []serveRequest, error) {
	dir, err := os.MkdirTemp(m.cfg.out, "serve-")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := server.New(server.Config{
		CacheDir:      filepath.Join(dir, "results"),
		CellCacheDir:  filepath.Join(dir, "cells"),
		MaxConcurrent: m.cfg.serverConcurrent,
		Workers:       m.cfg.serverWorkers,
		Seeds:         serveSeeds,
		Clock:         obs.ClockFunc(time.Now),
		Registry:      obs.NewRegistry(),
	})
	if err != nil {
		return 0, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx)
		return 0, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	tr := &http.Transport{MaxIdleConnsPerHost: m.cfg.clients}
	client := &http.Client{Transport: tr, Timeout: time.Minute}

	reqs := make([]serveRequest, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < m.cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				reqs[i] = m.request(ctx, client, base, rec, m.variants[seq[i]])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	tr.CloseIdleConnections()
	herr := hs.Shutdown(ctx)
	serr := srv.Shutdown(ctx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return 0, nil, err
	}
	if herr != nil {
		return 0, nil, herr
	}
	return wall, reqs, serr
}

// request runs one client request: submit, poll until the run ends,
// fetch the report.
func (m *serveMix) request(ctx context.Context, client *http.Client, base string, rec *recorder, v variant) serveRequest {
	out := serveRequest{id: v.id}
	root := rec.root("request")
	defer root.end()
	t0 := time.Now()
	sp := root.child("server.post")
	st, code, err := call(ctx, client, http.MethodPost, base+"/runs", v.body)
	sp.end()
	out.post = time.Since(t0)
	if err == nil && code == http.StatusTooManyRequests {
		out.shed = true
		err = errors.New("shed with 429")
	}
	if err == nil && code != http.StatusOK && code != http.StatusAccepted {
		err = fmt.Errorf("POST /runs answered %d", code)
	}
	out.accepted, out.cached = code == http.StatusAccepted, st.Cached
	backoff := 100 * time.Microsecond
	for err == nil && (st.State == server.StateQueued || st.State == server.StateRunning) {
		time.Sleep(backoff)
		backoff = min(2*backoff, 2*time.Millisecond)
		sp := root.child("server.poll")
		st, code, err = call(ctx, client, http.MethodGet, base+"/runs/"+v.id, nil)
		sp.end()
		out.polls++
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET /runs/{id} answered %d", code)
		}
	}
	if err == nil && st.State != server.StateDone {
		err = fmt.Errorf("run ended %s: %s", st.State, st.Error)
	}
	if err == nil {
		t1 := time.Now()
		sp := root.child("server.report_get")
		out.body, code, err = get(ctx, client, base+"/runs/"+v.id+"/report")
		sp.end()
		out.report = time.Since(t1)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET /runs/{id}/report answered %d", code)
		}
	}
	out.lat = time.Since(t0)
	if err == nil && out.accepted {
		out.queueWait, out.runTime, err = stamps(st)
	}
	if err != nil {
		out.err = fmt.Errorf("%s (%s): %w", v.sc.Name, v.id[:12], err)
		root.fail(out.err)
	}
	return out
}

// stamps reads queue wait and run time from a finished run's status.
func stamps(st server.Status) (wait, runTime time.Duration, err error) {
	var ts [3]time.Time
	for i, s := range []string{st.SubmittedAt, st.StartedAt, st.FinishedAt} {
		if ts[i], err = time.Parse(time.RFC3339Nano, s); err != nil {
			return 0, 0, fmt.Errorf("status stamp: %w", err)
		}
	}
	return ts[1].Sub(ts[0]), ts[2].Sub(ts[1]), nil
}

// call sends a request and decodes a run status.
func call(ctx context.Context, client *http.Client, method, url string, body []byte) (server.Status, int, error) {
	var st server.Status
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, resp.StatusCode, fmt.Errorf("%s %s: decode status: %w", method, url, err)
	}
	return st, resp.StatusCode, nil
}

func get(ctx context.Context, client *http.Client, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// finish checks every served report against a direct RunScenario of the
// same scenario and adds the daemon's per-layer figures.
func (m *serveMix) finish(ctx context.Context, rep *report, _ []*passRecord) {
	for _, v := range m.variants {
		served, ok := m.served[v.id]
		if !ok {
			continue
		}
		sc, err := scenario.Parse(v.body)
		var res *experiments.Result
		if err == nil {
			res, err = experiments.RunScenario(ctx, sc, experiments.Options{Workers: m.cfg.workers, Seeds: serveSeeds})
		}
		if err != nil || res.Text() != string(served) {
			rep.failed += m.counts[v.id]
			rep.problem("%s (%s): served report differs from a direct run (err %v)", v.sc.Name, v.id[:12], err)
		}
	}
	if len(m.traced) == 0 {
		return
	}
	var post, reportGet, wait, runTime []float64
	polls, cached, shed := 0, 0, 0
	for _, r := range m.traced {
		post = append(post, r.post.Seconds()*1e3)
		if r.err == nil {
			reportGet = append(reportGet, r.report.Seconds()*1e3)
		}
		if r.accepted && r.err == nil {
			wait = append(wait, r.queueWait.Seconds()*1e3)
			runTime = append(runTime, r.runTime.Seconds()*1e3)
		}
		polls += r.polls
		if r.cached {
			cached++
		}
		if r.shed {
			shed++
		}
	}
	n := float64(len(m.traced))
	rep.layer["server.post.p50_ms"] = median(post)
	rep.layer["server.report_get.p50_ms"] = median(reportGet)
	rep.layer["server.result_cache_hit_frac"] = float64(cached) / n
	rep.layer["server.queue_wait.p50_ms"] = quantile(wait, 0.5)
	rep.layer["server.queue_wait.p90_ms"] = quantile(wait, 0.9)
	rep.layer["server.run.p50_ms"] = quantile(runTime, 0.5)
	rep.layer["server.run.p90_ms"] = quantile(runTime, 0.9)
	rep.layer["server.polls_per_run"] = float64(polls) / n
	rep.layer["server.shed_frac"] = float64(shed) / n
	if looked := m.cache.Hits + m.cache.Misses; looked > 0 {
		rep.layer["cellcache.hit_frac"] = float64(m.cache.Hits) / float64(looked)
	}
	rep.layer["cellcache.corrupt"] = float64(m.cache.Evictions)
}
