package geom

import "math"

// UnitCircle returns math.Sincos(u * 2 * math.Pi) for u in [0, 1),
// bit for bit: the sine and cosine of a uniformly drawn direction. It
// is math.Sincos's own algorithm (the Cody–Waite reduction by Pi/4 in
// three parts and the same two polynomials), restricted to arguments in
// [0, 2*Pi), where the argument is never negative, NaN, infinite or
// large enough for Payne–Hanek reduction. The octant's swap of sine and
// cosine and its two sign flips are applied as integer masks on the
// results' bits instead of data-dependent branches, which a random
// direction would mispredict about half the time.
func UnitCircle(u float64) (sin, cos float64) {
	const (
		pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	x := u * 2 * math.Pi
	// The octant, rounded up to even so that zeros map to the origin;
	// y keeps the unmasked count (8 just below 2*Pi) for the reduction.
	j := uint64(x * (4 / math.Pi))
	j += j & 1
	y := float64(j)
	z := ((x - y*pi4A) - y*pi4B) - y*pi4C

	zz := z * z
	c := 1.0 - 0.5*zz + zz*zz*((((((cosCoef[0]*zz)+cosCoef[1])*zz+cosCoef[2])*zz+cosCoef[3])*zz+cosCoef[4])*zz+cosCoef[5])
	s := z + z*zz*((((((sinCoef[0]*zz)+sinCoef[1])*zz+sinCoef[2])*zz+sinCoef[3])*zz+sinCoef[4])*zz+sinCoef[5])

	// j is even, so bit 1 marks octants 2 and 6, where sine and cosine
	// swap, and bit 2 the lower half-plane, where the sine turns
	// negative; the cosine turns negative where exactly one is set.
	sb, cb := math.Float64bits(s), math.Float64bits(c)
	swap := -(j >> 1 & 1) & (sb ^ cb)
	sb ^= swap
	cb ^= swap
	sb ^= j >> 2 & 1 << 63
	cb ^= (j>>2 ^ j>>1) & 1 << 63
	return math.Float64frombits(sb), math.Float64frombits(cb)
}

// The polynomial coefficients of math.Sincos (Cephes' sin.c), for z in
// [-Pi/4, Pi/4].
var (
	sinCoef = [...]float64{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	}
	cosCoef = [...]float64{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	}
)
