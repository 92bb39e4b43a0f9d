// Package interference implements the protocol interference model of
// Definition 4: a transmission from i to j succeeds iff j is within the
// common transmission range RT of i and every other simultaneous
// transmitter is at least (1+Delta)*RT away from j.
package interference

import "hybridcap/internal/geom"

// DefaultDelta is the guard-zone factor used by experiments unless
// overridden.
const DefaultDelta = 1.0

// Model carries the protocol-model parameters.
type Model struct {
	// RT is the common transmission range.
	RT float64
	// Delta >= 0 defines the guard zone radius (1+Delta)*RT.
	Delta float64
}

// NewModel builds a protocol model, applying DefaultDelta if delta is
// negative.
func NewModel(rt, delta float64) Model {
	if delta < 0 {
		delta = DefaultDelta
	}
	return Model{RT: rt, Delta: delta}
}

// GuardRadius returns (1+Delta)*RT.
func (m Model) GuardRadius() float64 { return (1 + m.Delta) * m.RT }

// InRange reports whether a receiver at rx can hear a transmitter at tx
// (condition 1 of Definition 4).
func (m Model) InRange(tx, rx geom.Point) bool {
	return geom.Dist2(tx, rx) <= m.RT*m.RT
}

// Transmission is one scheduled wireless transmission between node
// indices (into whatever position array the caller uses).
type Transmission struct {
	From, To int
}
