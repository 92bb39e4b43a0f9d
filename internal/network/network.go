// Package network assembles concrete finite network instances from the
// paper's parameter space: n mobile stations with clustered home-points
// and kernel mobility, plus k base stations placed by one of the
// schemes of Section II / Theorem 6, all on the unit torus.
package network

import (
	"fmt"
	"math"
	"math/rand"

	"hybridcap/internal/faults"
	"hybridcap/internal/geom"
	"hybridcap/internal/mobility"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
)

// BSPlacement selects how base stations are located.
type BSPlacement int

// Placement schemes. Matched is the paper's default (BS distribution
// matches the user distribution); Uniform and Grid are the simpler
// schemes Theorem 6 proves equally good in uniformly dense networks.
const (
	Matched BSPlacement = iota + 1
	Uniform
	Grid
)

// String implements fmt.Stringer.
func (b BSPlacement) String() string {
	switch b {
	case Matched:
		return "matched"
	case Uniform:
		return "uniform"
	case Grid:
		return "grid"
	default:
		return fmt.Sprintf("BSPlacement(%d)", int(b))
	}
}

// ParsePlacement resolves a placement name ("matched", "uniform",
// "grid") to its BSPlacement. The empty string selects Matched, the
// paper's default, mirroring Config's zero value.
func ParsePlacement(name string) (BSPlacement, error) {
	switch name {
	case "", "matched":
		return Matched, nil
	case "uniform":
		return Uniform, nil
	case "grid":
		return Grid, nil
	default:
		return 0, fmt.Errorf("network: unknown BS placement %q (want matched, uniform, or grid)", name)
	}
}

// MobilityKind selects the mobility process implementation.
type MobilityKind int

// Mobility kinds. IID redraws from the stationary law each slot; Walk is
// a slow-mixing Metropolis walk with the same stationary law; Static
// freezes every MS at its home-point (the equivalent static model of
// Theorem 8).
const (
	IID MobilityKind = iota + 1
	Walk
	Static
)

// String implements fmt.Stringer.
func (m MobilityKind) String() string {
	switch m {
	case IID:
		return "iid"
	case Walk:
		return "walk"
	case Static:
		return "static"
	default:
		return fmt.Sprintf("MobilityKind(%d)", int(m))
	}
}

// Config fully determines a network instance (given a seed).
type Config struct {
	Params      scaling.Params
	Kernel      mobility.Kernel // nil selects mobility.DefaultKernel()
	Mobility    MobilityKind    // zero selects IID
	BSPlacement BSPlacement     // zero selects Matched
	WalkStep    float64         // proposal fraction for Walk; zero = default
	Seed        uint64
	// Faults optionally injects infrastructure faults: BS outages are
	// applied at construction, and routing/simulation layers consult
	// the plan for backbone edge failures and wireless erasures.
	Faults *faults.Plan
}

// Network is a concrete instance: home-points, mobility processes and
// BS positions. It is not safe for concurrent mutation.
type Network struct {
	Cfg       Config
	Placement *mobility.Placement
	Sampler   *mobility.Sampler
	MSProcs   []mobility.Process
	BSPos     []geom.Point
	BSCluster []int // index of nearest MS cluster per BS
	// BSAlive marks which BSs survived the fault plan; nil means every
	// BS is alive. Dead BSs keep their position (the tower stands, the
	// equipment is down) but are excluded from serving sets.
	BSAlive []bool

	f       float64
	stepRNG *rand.Rand
}

// New builds a network instance. The same Config always produces the
// same instance.
func New(cfg Config) (*Network, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	if cfg.Kernel == nil {
		cfg.Kernel = mobility.DefaultKernel()
	}
	if cfg.Mobility == 0 {
		cfg.Mobility = IID
	}
	if cfg.BSPlacement == 0 {
		cfg.BSPlacement = Matched
	}
	root := rng.New(cfg.Seed)
	p := cfg.Params
	sampler, err := mobility.CachedSampler(cfg.Kernel)
	if err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	nw := &Network{
		Cfg:     cfg,
		Sampler: sampler,
		f:       p.F(),
	}

	placeRand := root.Derive("homepoints").Rand()
	if m := p.NumClusters(); m >= p.N {
		nw.Placement, err = mobility.PlaceUniform(p.N, placeRand)
	} else {
		nw.Placement, err = mobility.PlaceClustered(p.N, m, p.ClusterRadius(), placeRand)
	}
	if err != nil {
		return nil, fmt.Errorf("network: place home-points: %w", err)
	}

	nw.stepRNG = root.Derive("mobility").Rand()
	nw.MSProcs = make([]mobility.Process, p.N)
	homes := nw.Placement.HomePoints
	switch cfg.Mobility {
	case IID:
		// One allocation for every process, not one each.
		iids := mobility.NewIIDs(homes, nw.Sampler, nw.f, nw.stepRNG)
		for i := range iids {
			nw.MSProcs[i] = &iids[i]
		}
	case Walk:
		for i, home := range homes {
			nw.MSProcs[i] = mobility.NewWalk(home, nw.Sampler, nw.f, cfg.WalkStep, nw.stepRNG)
		}
	case Static:
		for i, home := range homes {
			nw.MSProcs[i] = mobility.NewStatic(home)
		}
	default:
		return nil, fmt.Errorf("network: unknown mobility kind %v", cfg.Mobility)
	}

	if p.HasInfrastructure() {
		if err := nw.placeBS(root.Derive("bs").Rand()); err != nil {
			return nil, err
		}
	}
	if cfg.Faults != nil {
		nw.ApplyFaults(cfg.Faults)
	}
	return nw, nil
}

// ApplyFaults installs (or replaces) a fault plan: the plan's BS outage
// mask takes effect immediately and downstream layers (routing,
// simulation) read the plan for edge failures and wireless erasures.
// A nil plan restores a healthy network.
func (nw *Network) ApplyFaults(plan *faults.Plan) {
	nw.Cfg.Faults = plan
	if plan == nil || len(nw.BSPos) == 0 {
		nw.BSAlive = nil
		return
	}
	nw.BSAlive = plan.BSAlive(len(nw.BSPos))
}

// Faults returns the installed fault plan (nil when healthy).
func (nw *Network) Faults() *faults.Plan { return nw.Cfg.Faults }

// BSIsLive reports whether BS j survived the fault plan.
func (nw *Network) BSIsLive(j int) bool {
	return nw.BSAlive == nil || nw.BSAlive[j]
}

// NumLiveBS returns the number of surviving base stations.
func (nw *Network) NumLiveBS() int {
	if nw.BSAlive == nil {
		return len(nw.BSPos)
	}
	live := 0
	for _, a := range nw.BSAlive {
		if a {
			live++
		}
	}
	return live
}

// LiveBSIDs returns the ids of surviving base stations.
func (nw *Network) LiveBSIDs() []int {
	ids := make([]int, 0, len(nw.BSPos))
	for j := range nw.BSPos {
		if nw.BSIsLive(j) {
			ids = append(ids, j)
		}
	}
	return ids
}

// LiveBSPositions returns the positions of surviving base stations and
// their original ids, in id order.
func (nw *Network) LiveBSPositions() ([]geom.Point, []int) {
	ids := nw.LiveBSIDs()
	pos := make([]geom.Point, len(ids))
	for i, j := range ids {
		pos[i] = nw.BSPos[j]
	}
	return pos, ids
}

func (nw *Network) placeBS(r *rand.Rand) error {
	k := nw.Cfg.Params.NumBS()
	nw.BSPos = make([]geom.Point, k)
	switch nw.Cfg.BSPlacement {
	case Matched:
		// Section II: draw Qj by the clustered model, then let Yj follow
		// phi(Y - Qj), i.e. one kernel displacement around Qj.
		m := nw.Placement.NumClusters()
		radius := nw.Placement.Radius
		for j := range nw.BSPos {
			c := r.Intn(m)
			q := randomInDisk(nw.Placement.ClusterCenters[c], radius, r)
			nw.BSPos[j] = mobility.SamplePointNear(q, nw.Sampler, nw.f, r)
		}
	case Uniform:
		for j := range nw.BSPos {
			nw.BSPos[j] = geom.Point{X: r.Float64(), Y: r.Float64()}
		}
	case Grid:
		// Use the smallest square grid with at least k cells and spread
		// the k BSs evenly over its cell index space, so the unused cells
		// (when k is not a perfect square) do not cluster in one band.
		side := int(math.Ceil(math.Sqrt(float64(k))))
		g := geom.NewGridCells(side)
		total := side * side
		for j := range nw.BSPos {
			cell := j * total / k
			nw.BSPos[j] = g.Center(cell%side, cell/side)
		}
	default:
		return fmt.Errorf("network: unknown BS placement %v", nw.Cfg.BSPlacement)
	}
	nw.assignBSClusters()
	return nil
}

func randomInDisk(center geom.Point, radius float64, r *rand.Rand) geom.Point {
	if radius <= 0 {
		return center
	}
	rho := radius * math.Sqrt(r.Float64())
	sin, cos := geom.UnitCircle(r.Float64())
	return geom.Add(center, rho*cos, rho*sin)
}

// assignBSClusters maps every BS to its nearest cluster centre, ties
// going to the lower cluster index.
func (nw *Network) assignBSClusters() {
	centers := nw.Placement.ClusterCenters
	nw.BSCluster = make([]int, len(nw.BSPos))
	if len(centers) <= nearestScanMax {
		for j, y := range nw.BSPos {
			nw.BSCluster[j] = nearestScan(centers, y)
		}
		return
	}
	// Bucket tables of up to len(stack) entries stay off the heap.
	var stack [1024]int32
	cb := newCenterBuckets(centers, stack[:])
	for j, y := range nw.BSPos {
		nw.BSCluster[j] = cb.nearest(y)
	}
}

// nearestScanMax is the centre count up to which assignBSClusters
// scans every centre per BS instead of bucketing the centres.
const nearestScanMax = 64

// nearestScan returns the index of the centre nearest y (the lowest
// index among equally near centres), scanning them all.
func nearestScan(centers []geom.Point, y geom.Point) int {
	best, bestD := 0, math.Inf(1)
	for c, ctr := range centers {
		if d := geom.Dist2Unit(y, ctr); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// centerBuckets buckets cluster centres in a square grid of about one
// centre per cell, stored flat: bucket b holds ids[start[b]:start[b+1]]
// in increasing id order.
type centerBuckets struct {
	grid    geom.Grid
	centers []geom.Point
	start   []int32
	ids     []int32
}

// newCenterBuckets builds the buckets in buf when it is large enough
// and in a fresh slice otherwise.
func newCenterBuckets(centers []geom.Point, buf []int32) centerBuckets {
	g := geom.NewGridCells(max(1, int(math.Sqrt(float64(len(centers))))))
	nc := g.NumCells()
	if need := nc + 1 + len(centers); need <= len(buf) {
		buf = buf[:need]
		clear(buf)
	} else {
		buf = make([]int32, need)
	}
	start, ids := buf[:nc+1], buf[nc+1:]
	// Counting sort: count per cell, prefix-sum to bucket ends, then
	// place ids back to front so each bucket ends up ascending.
	for _, p := range centers {
		start[g.CellIndexOf(p)]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	for c := len(centers) - 1; c >= 0; c-- {
		b := g.CellIndexOf(centers[c])
		start[b]--
		ids[start[b]] = int32(c)
	}
	return centerBuckets{grid: g, centers: centers, start: start, ids: ids}
}

// nearest returns what nearestScan returns, searching square rings of
// cells outward from y's cell. A centre in ring r (r >= 2) lies at
// least r-1 whole cells from y along some axis, so once that bound is
// strictly past the best distance no later ring can hold a nearer or
// equally near centre. The bound is shaved by a relative 1e-9 so that
// rounding in the cell assignment cannot end the search early.
func (cb centerBuckets) nearest(y geom.Point) int {
	best, bestD := -1, math.Inf(1)
	col, row := cb.grid.CellOf(y)
	w := cb.grid.CellW()
	for r := 0; ; r++ {
		if r >= 2 {
			if lb := (float64(r-1) - 1e-9) * w; lb*lb > bestD {
				break
			}
		}
		for dr := -r; dr <= r; dr++ {
			step := 2 * r
			if dr == -r || dr == r || r == 0 {
				step = 1
			}
			for dc := -r; dc <= r; dc += step {
				cell := cb.grid.Index(col+dc, row+dr)
				for _, id := range cb.ids[cb.start[cell]:cb.start[cell+1]] {
					c := int(id)
					d := geom.Dist2Unit(y, cb.centers[c])
					if d < bestD || (d == bestD && c < best) {
						best, bestD = c, d
					}
				}
			}
		}
		if 2*r+1 >= cb.grid.Cols {
			break // the rings have covered every cell
		}
	}
	return best
}

// NumMS returns the number of mobile stations.
func (nw *Network) NumMS() int { return len(nw.MSProcs) }

// NumBS returns the number of base stations.
func (nw *Network) NumBS() int { return len(nw.BSPos) }

// F returns the network extension f(n).
func (nw *Network) F() float64 { return nw.f }

// HomePoints returns the MS home-points (shared slice; do not mutate).
func (nw *Network) HomePoints() []geom.Point { return nw.Placement.HomePoints }

// Step advances every mobility process by one slot.
func (nw *Network) Step() {
	for _, p := range nw.MSProcs {
		p.Step(nw.stepRNG)
	}
}

// MSPositions appends the current MS positions to dst (reset to length
// zero first) and returns it; pass nil to allocate.
func (nw *Network) MSPositions(dst []geom.Point) []geom.Point {
	dst = dst[:0]
	for _, p := range nw.MSProcs {
		dst = append(dst, p.Position())
	}
	return dst
}

// Eta returns the kernel's contact-density table, built lazily (it is
// moderately expensive and only some analyses need it). The table is
// shared process-wide across every instance with an identical kernel —
// it depends only on the kernel parameters, never on the seed or the
// fault plan — and is immutable, so concurrent callers are safe. The
// build error of a malformed kernel is cached alongside the table.
func (nw *Network) Eta() (*mobility.EtaTable, error) {
	return mobility.CachedEtaTable(nw.Cfg.Kernel)
}

// RemoveBS fails a random fraction of the base stations in place,
// modeling infrastructure outages. The surviving BSs keep their
// positions; cluster assignments are recomputed. fraction must lie in
// [0, 1); the instance keeps at least one BS when it had any.
func (nw *Network) RemoveBS(fraction float64, seed uint64) error {
	if fraction < 0 || fraction >= 1 {
		return fmt.Errorf("network: outage fraction %g outside [0, 1)", fraction)
	}
	k := len(nw.BSPos)
	if k == 0 || fraction == 0 {
		return nil
	}
	keep := k - int(math.Round(fraction*float64(k)))
	if keep < 1 {
		keep = 1
	}
	r := rng.New(seed).Derive("bs-outage").Rand()
	r.Shuffle(k, func(i, j int) {
		nw.BSPos[i], nw.BSPos[j] = nw.BSPos[j], nw.BSPos[i]
	})
	nw.BSPos = nw.BSPos[:keep]
	nw.assignBSClusters()
	return nil
}

// MSClusterMembers returns, for each cluster, the list of MS ids whose
// home-point belongs to it.
func (nw *Network) MSClusterMembers() [][]int {
	members := make([][]int, nw.Placement.NumClusters())
	for i, c := range nw.Placement.ClusterOf {
		members[c] = append(members[c], i)
	}
	return members
}

// BSClusterMembers returns, for each cluster, the list of surviving BS
// ids assigned (by proximity) to it. Dead BSs are omitted, so a cluster
// whose every serving BS failed gets an empty member list — the signal
// routing uses to degrade that cluster's traffic.
func (nw *Network) BSClusterMembers() [][]int {
	members := make([][]int, nw.Placement.NumClusters())
	for j, c := range nw.BSCluster {
		if nw.BSIsLive(j) {
			members[c] = append(members[c], j)
		}
	}
	return members
}
