package geom

import (
	"math"
	"testing"
)

func FuzzWrap(f *testing.F) {
	for _, seed := range []float64{0, 1, -1, 0.5, 1e9, -1e9, 1e-18, -1e-18, 0.9999999999999999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip()
		}
		w := Wrap(x)
		if w < 0 || w >= 1 {
			t.Fatalf("Wrap(%v) = %v outside [0,1)", x, w)
		}
		// Idempotence.
		if Wrap(w) != w {
			t.Fatalf("Wrap not idempotent at %v", x)
		}
	})
}

func FuzzDistMetric(f *testing.F) {
	f.Add(0.1, 0.2, 0.8, 0.9)
	f.Add(0.0, 0.0, 0.5, 0.5)
	f.Add(0.99, 0.01, 0.01, 0.99)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by float64) {
		for _, v := range []float64{ax, ay, bx, by} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				t.Skip()
			}
		}
		a, b := Pt(ax, ay), Pt(bx, by)
		d := Dist(a, b)
		if d < 0 || d > MaxDist+1e-9 {
			t.Fatalf("Dist(%v,%v) = %v outside [0, MaxDist]", a, b, d)
		}
		if math.Abs(d-Dist(b, a)) > 1e-12 {
			t.Fatalf("Dist not symmetric at %v, %v", a, b)
		}
		if a == b && d != 0 {
			t.Fatalf("Dist(x,x) = %v", d)
		}
	})
}

// FuzzDist2UnitMatchesDist2 folds arbitrary coordinates into [0,1)
// and checks Dist2Unit bit for bit against its two-branch form and
// Dist2.
func FuzzDist2UnitMatchesDist2(f *testing.F) {
	f.Add(0.0, 0.0, 0.5, 0.5)
	f.Add(0.25, 0.75, 0.75, 0.25)
	f.Add(0.9999999999999999, 0.0, 0.0, 0.9999999999999999)
	f.Add(5e-324, math.Copysign(0, -1), 0.5, 1e-310)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by float64) {
		for _, v := range []float64{ax, ay, bx, by} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		checkDist2Unit(t, Pt(ax, ay), Pt(bx, by))
	})
}

func FuzzGridCellOf(f *testing.F) {
	f.Add(7, 0.3, 0.7)
	f.Add(1, 0.0, 0.0)
	f.Add(100, 0.999999, 0.000001)
	f.Fuzz(func(t *testing.T, cells int, x, y float64) {
		if cells < 1 || cells > 1000 {
			t.Skip()
		}
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			t.Skip()
		}
		g := NewGridCells(cells)
		c, r := g.CellOf(Pt(x, y))
		if c < 0 || c >= g.Cols || r < 0 || r >= g.Rows {
			t.Fatalf("CellOf(%v,%v) = (%d,%d) out of %v", x, y, c, r, g)
		}
		if idx := g.Index(c, r); idx < 0 || idx >= g.NumCells() {
			t.Fatalf("Index out of range: %d", idx)
		}
	})
}

func FuzzHexCellOf(f *testing.F) {
	f.Add(0.1, 0.3, 0.7)
	f.Add(0.05, 0.0, 0.999)
	f.Fuzz(func(t *testing.T, side, x, y float64) {
		if math.IsNaN(side) || side <= 0.01 || side > 1 {
			t.Skip()
		}
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			t.Skip()
		}
		h := NewHexGrid(side)
		c, r := h.CellOf(Pt(x, y))
		if c < 0 || c >= h.Cols || r < 0 || r >= h.Rows {
			t.Fatalf("CellOf out of range: (%d,%d) for %v", c, r, h)
		}
	})
}

func FuzzUnitCircle(f *testing.F) {
	for _, seed := range []float64{0, 0.125, 0.25, 0.5, 0.75, 0.875, 0.9999999999999999, 1.0 / 3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, u float64) {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			t.Skip()
		}
		// Fold into [0,1): Mod keeps |u| < 1 and its sign.
		u = math.Abs(math.Mod(u, 1))
		checkUnitCircle(t, u)
	})
}
