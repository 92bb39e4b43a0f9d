package geom

import (
	"fmt"
	"math"
)

// Grid is a regular square tessellation of the unit torus. The torus is
// divided into Cols x Rows identical rectangular cells; because the torus
// side is 1, cell dimensions are exactly 1/Cols x 1/Rows, so the
// tessellation tiles the torus with no remainder and the wrap-around
// adjacency is well defined.
//
// Grids implement the "squarelet" tessellations used throughout the paper:
// routing scheme A (Definition 11) uses cells of area Theta(1/f^2), the
// home-point counting lemma (Lemma 1) uses cells of area (16+beta)*gamma.
type Grid struct {
	Cols, Rows int
}

// NewGrid builds a square tessellation whose cell side is as close to
// side as possible while still exactly tiling the torus. The actual cell
// side is 1/round(1/side), clamped so the grid has at least one cell.
func NewGrid(side float64) Grid {
	if side <= 0 || math.IsNaN(side) {
		return Grid{Cols: 1, Rows: 1}
	}
	n := int(math.Round(1 / side))
	if n < 1 {
		n = 1
	}
	return Grid{Cols: n, Rows: n}
}

// NewGridCells builds an n x n tessellation directly.
func NewGridCells(n int) Grid {
	if n < 1 {
		n = 1
	}
	return Grid{Cols: n, Rows: n}
}

// NewGridArea builds a square tessellation whose cell area is as close to
// area as possible. Cell area is exactly 1/(Cols*Rows).
func NewGridArea(area float64) Grid {
	if area <= 0 || math.IsNaN(area) {
		return Grid{Cols: 1, Rows: 1}
	}
	return NewGrid(math.Sqrt(area))
}

// NumCells returns the total number of cells.
func (g Grid) NumCells() int { return g.Cols * g.Rows }

// CellW returns the width of one cell.
func (g Grid) CellW() float64 { return 1 / float64(g.Cols) }

// CellH returns the height of one cell.
func (g Grid) CellH() float64 { return 1 / float64(g.Rows) }

// CellArea returns the area of one cell.
func (g Grid) CellArea() float64 { return g.CellW() * g.CellH() }

// CellOf returns the (col, row) of the cell containing p.
func (g Grid) CellOf(p Point) (col, row int) {
	// A point in [0,1)² is its own wrap; only others pay Wrap's floors.
	if !(p.X >= 0 && p.X < 1 && p.Y >= 0 && p.Y < 1) {
		p = p.Wrapped()
	}
	col = int(p.X * float64(g.Cols))
	row = int(p.Y * float64(g.Rows))
	// Guard against p.X or p.Y being rounded up to 1.0 by float error.
	if col >= g.Cols {
		col = g.Cols - 1
	}
	if row >= g.Rows {
		row = g.Rows - 1
	}
	return col, row
}

// Index flattens a wrapped (col, row) pair to a cell index in
// [0, NumCells).
func (g Grid) Index(col, row int) int {
	col, row = g.WrapCell(col, row)
	return row*g.Cols + col
}

// CellIndexOf returns the flat index of the cell containing p.
func (g Grid) CellIndexOf(p Point) int {
	col, row := g.CellOf(p)
	return row*g.Cols + col
}

// ColRow recovers (col, row) from a flat cell index.
func (g Grid) ColRow(idx int) (col, row int) {
	return idx % g.Cols, idx / g.Cols
}

// WrapCell wraps cell coordinates using torus topology.
func (g Grid) WrapCell(col, row int) (int, int) {
	col %= g.Cols
	if col < 0 {
		col += g.Cols
	}
	row %= g.Rows
	if row < 0 {
		row += g.Rows
	}
	return col, row
}

// Center returns the center point of cell (col, row).
func (g Grid) Center(col, row int) Point {
	col, row = g.WrapCell(col, row)
	return Point{
		X: (float64(col) + 0.5) * g.CellW(),
		Y: (float64(row) + 0.5) * g.CellH(),
	}
}

// HopDist returns the minimal number of horizontal plus vertical cell
// steps between two cells under wrap-around (the L1 cell distance on the
// torus), which is the hop count of routing scheme A between them.
func (g Grid) HopDist(c1, r1, c2, r2 int) int {
	dc := absWrapDist(c1, c2, g.Cols)
	dr := absWrapDist(r1, r2, g.Rows)
	return dc + dr
}

// ColSteps returns the signed number of column steps of the shortest
// horizontal wrap path from c1 to c2 (positive means stepping right).
func (g Grid) ColSteps(c1, c2 int) int { return signedWrapDist(c1, c2, g.Cols) }

// RowSteps returns the signed number of row steps of the shortest
// vertical wrap path from r1 to r2 (positive means stepping down).
func (g Grid) RowSteps(r1, r2 int) int { return signedWrapDist(r1, r2, g.Rows) }

func absWrapDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

func signedWrapDist(a, b, n int) int {
	d := b - a
	d %= n
	if d < 0 {
		d += n
	}
	if d > n/2 {
		d -= n
	}
	return d
}

// String implements fmt.Stringer.
func (g Grid) String() string {
	return fmt.Sprintf("grid %dx%d (cell %.4gx%.4g)", g.Cols, g.Rows, g.CellW(), g.CellH())
}
