package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Span is one node of a hierarchical trace: run -> experiment -> phase
// -> cell. A span starts when created and ends when End is called;
// children are appended in call order, which is deterministic because
// phases open spans serially and the engine records cell spans in grid
// order on the caller's goroutine. Under a FrozenClock every timestamp
// is the frozen instant and every duration is zero, so the rendered
// tree is byte-identical across runs and worker counts.
type Span struct {
	mu       sync.Mutex
	clock    Clock
	name     string
	start    time.Time
	end      time.Time
	err      string
	children []*Span
}

// NewSpan opens a root span on the given clock.
func NewSpan(clock Clock, name string) *Span {
	if clock == nil {
		clock = NewFrozenClock(Epoch)
	}
	return &Span{clock: clock, name: name, start: clock.Now()}
}

// Child opens a sub-span starting now.
func (s *Span) Child(name string) *Span {
	c := &Span{clock: s.clock, name: name, start: s.clock.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Record appends an already-measured child: a completed sub-span whose
// duration was timed elsewhere (the engine times cells on worker
// goroutines, then records them here in grid order). The child starts
// now and ends after d.
func (s *Span) Record(name string, d time.Duration) *Span {
	c := s.Child(name)
	c.mu.Lock()
	c.end = c.start.Add(d)
	c.mu.Unlock()
	return c
}

// SetError annotates the span with a failure.
func (s *Span) SetError(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// End closes the span. Ending an already-ended span keeps the first
// end time.
func (s *Span) End() {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = s.clock.Now()
	}
	s.mu.Unlock()
}

// Duration returns the span's elapsed time: end minus start, or zero
// while the span is still open (an open span has no defined duration,
// and zero keeps renders of unterminated spans deterministic).
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Node is the JSON shape of one rendered span.
type Node struct {
	// Name identifies the span.
	Name string `json:"name"`
	// Start is the span's start instant in RFC 3339 with nanoseconds,
	// UTC.
	Start string `json:"start"`
	// DurationNS is the span's duration in nanoseconds (0 while open).
	DurationNS int64 `json:"duration_ns"`
	// Error carries the failure annotation, if any.
	Error string `json:"error,omitempty"`
	// Children are the sub-spans in creation order.
	Children []Node `json:"children,omitempty"`
}

// Tree renders the span and its descendants as plain nodes.
func (s *Span) Tree() Node {
	s.mu.Lock()
	n := Node{
		Name:       s.name,
		Start:      s.start.UTC().Format(time.RFC3339Nano),
		DurationNS: 0,
		Error:      s.err,
	}
	if !s.end.IsZero() {
		n.DurationNS = s.end.Sub(s.start).Nanoseconds()
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		n.Children = append(n.Children, c.Tree())
	}
	return n
}

// WriteJSON writes the span tree as canonical indented JSON with a
// trailing newline. The node tree holds no maps, so the encoding is
// deterministic.
func (s *Span) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s.Tree(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: render trace: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	return nil
}
