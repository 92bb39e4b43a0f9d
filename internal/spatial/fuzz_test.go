package spatial

import (
	"math"
	"math/rand"
	"testing"

	"hybridcap/internal/geom"
)

// FuzzIndexMatchesReference checks every query of the index against
// the reference index over random points, cell side, query point and
// radius: ForEachWithin's ids in order, with and without an early
// stop, AppendWithin's, and Nearest's id and distance bits with and
// without a skip. Mode 1 snaps the points to a 1/16 lattice, so
// distances tie exactly; mode 2 packs them into a corner.
func FuzzIndexMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0), 0.05, 0.3, 0.7, 0.1)
	f.Add(int64(2), uint16(40), uint8(1), 0.125, 0.5, 0.5, 0.25)
	f.Add(int64(3), uint16(500), uint8(2), 0.02, 0.999, 0.0, 0.6)
	f.Add(int64(4), uint16(0), uint8(0), 0.3, 0.1, 0.1, 0.9)
	f.Add(int64(5), uint16(7), uint8(1), 1.0, 0.0, 0.9999, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mode uint8, side, qx, qy, r float64) {
		for _, v := range []float64{side, qx, qy, r} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		pts := randomPoints(int(n%2000), seed)
		for i := range pts {
			switch mode % 3 {
			case 1:
				pts[i] = geom.Pt(math.Floor(pts[i].X*16)/16, math.Floor(pts[i].Y*16)/16)
			case 2:
				pts[i] = geom.Point{X: pts[i].X * 0.05, Y: pts[i].Y * 0.05}
			}
		}
		ix := New(pts, math.Min(math.Abs(side), 2))
		queries := []geom.Point{geom.Pt(qx, qy)}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			queries = append(queries, geom.Point{X: rng.Float64(), Y: rng.Float64()})
		}
		if len(pts) > 0 {
			queries = append(queries, pts[rng.Intn(len(pts))])
		}
		checkAgainstReference(t, "fuzz", ix, queries, []float64{math.Mod(math.Abs(r), 2)})
	})
}
