package main

import (
	"strings"
	"sync"
	"time"

	"hybridcap/internal/obs"
)

// recorder collects one traced pass: an obs.Span tree per cell,
// simulation or request, kept in memory until the run ends, plus counts
// taken at the same layer boundaries. It is safe for concurrent use;
// each tree is only ever touched by the goroutine that opened it.
type recorder struct {
	clock  obs.Clock
	mu     sync.Mutex
	roots  []*obs.Span
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{clock: obs.ClockFunc(time.Now), counts: map[string]float64{}}
}

// span is a nil-safe handle on an obs.Span, so the same code path runs
// traced and untraced: on an untraced pass every method is a no-op.
type span struct{ s *obs.Span }

// root opens a new tree. Span names start with the layer name; anything
// after the first space only labels the span.
func (r *recorder) root(name string) span {
	if r == nil {
		return span{}
	}
	s := obs.NewSpan(r.clock, name)
	r.mu.Lock()
	r.roots = append(r.roots, s)
	r.mu.Unlock()
	return span{s}
}

// add bumps a counter; a no-op when untraced.
func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

func (p span) child(name string) span {
	if p.s == nil {
		return span{}
	}
	return span{p.s.Child(name)}
}

func (p span) end() {
	if p.s != nil {
		p.s.End()
	}
}

func (p span) fail(err error) {
	if p.s != nil {
		p.s.SetError(err)
	}
}

// trees renders every tree.
func (r *recorder) trees() []obs.Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]obs.Node, len(r.roots))
	for i, s := range r.roots {
		out[i] = s.Tree()
	}
	return out
}

func (r *recorder) snapshotCounts() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// rootDurations lists every tree's total duration.
func (r *recorder) rootDurations() []time.Duration {
	var out []time.Duration
	for _, t := range r.trees() {
		out = append(out, time.Duration(t.DurationNS))
	}
	return out
}

// selfTimes sums each layer's self time in seconds over every tree: a
// span's duration minus the part its children cover.
func (r *recorder) selfTimes() map[string]float64 {
	out := map[string]float64{}
	for _, t := range r.trees() {
		addSelf(t, out)
	}
	return out
}

func addSelf(n obs.Node, into map[string]float64) {
	into[layerOf(n.Name)] += float64(selfNS(n)) / 1e9
	for _, c := range n.Children {
		addSelf(c, into)
	}
}

// selfNS is a span's duration minus its children's; children of one
// span run one after another on the span's goroutine, so they never
// overlap.
func selfNS(n obs.Node) int64 {
	d := n.DurationNS
	for _, c := range n.Children {
		d -= c.DurationNS
	}
	return d
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, ' '); i >= 0 {
		return name[:i]
	}
	return name
}
