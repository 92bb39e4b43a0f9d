package interference

import (
	"testing"

	"hybridcap/internal/geom"
)

func TestNewModelDefaults(t *testing.T) {
	m := NewModel(0.1, -1)
	if m.Delta != DefaultDelta {
		t.Errorf("Delta = %v, want default", m.Delta)
	}
	if m.GuardRadius() != (1+DefaultDelta)*0.1 {
		t.Errorf("GuardRadius = %v", m.GuardRadius())
	}
}

func TestInRange(t *testing.T) {
	m := NewModel(0.1, 1)
	if !m.InRange(geom.Point{X: 0.5, Y: 0.5}, geom.Point{X: 0.55, Y: 0.5}) {
		t.Error("0.05 should be in range 0.1")
	}
	if m.InRange(geom.Point{X: 0.5, Y: 0.5}, geom.Point{X: 0.65, Y: 0.5}) {
		t.Error("0.15 should be out of range 0.1")
	}
	// Wrap-around.
	if !m.InRange(geom.Point{X: 0.99, Y: 0.5}, geom.Point{X: 0.04, Y: 0.5}) {
		t.Error("wrapped 0.05 should be in range")
	}
}
