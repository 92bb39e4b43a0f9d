package mobility

import (
	"math/rand"

	"hybridcap/internal/geom"
)

// Process is a discrete-time mobility process around a home-point. All
// implementations are stationary and ergodic with spatial distribution
// phi(X) proportional to s(f*|X - Xh|), as required by Definition 2; the
// capacity results depend only on this stationary distribution (Lemma 2),
// while mixing speed differs between implementations.
type Process interface {
	// Home returns the process's home-point.
	Home() geom.Point
	// Position returns the current location.
	Position() geom.Point
	// Step advances the process by one slot.
	Step(rng *rand.Rand)
	// Reset re-draws the position from the stationary distribution.
	Reset(rng *rand.Rand)
}

// IIDProcess redraws its position independently from phi each slot: the
// fastest-mixing stationary process, the direct analogue of the i.i.d.
// mobility model (Remark 4) restricted around a home-point.
type IIDProcess struct {
	home    geom.Point
	pos     geom.Point
	sampler *Sampler
	f       float64
}

// NewIIDs builds one i.i.d.-around-home process per home-point, in a
// single slice, drawing each initial position in home-point order. f is
// the network extension f(n); displacements are kernel samples scaled
// by 1/f per the normalization of Definition 1.
func NewIIDs(homes []geom.Point, s *Sampler, f float64, rng *rand.Rand) []IIDProcess {
	ps := make([]IIDProcess, len(homes))
	for i, home := range homes {
		ps[i] = IIDProcess{home: home, sampler: s, f: f}
		ps[i].Reset(rng)
	}
	return ps
}

// Home implements Process.
func (p *IIDProcess) Home() geom.Point { return p.home }

// Position implements Process.
func (p *IIDProcess) Position() geom.Point { return p.pos }

// Step implements Process.
func (p *IIDProcess) Step(rng *rand.Rand) {
	p.pos = SamplePointNear(p.home, p.sampler, p.f, rng)
}

// Reset implements Process.
func (p *IIDProcess) Reset(rng *rand.Rand) { p.Step(rng) }

// WalkProcess is a Metropolis random walk whose target distribution is
// exactly phi: it proposes a Gaussian step of scale StepFrac*D/f and
// accepts with the Metropolis ratio. It models slowly-mixing local
// mobility (random-walk / Brownian-like variants of Remark 4) while
// preserving the same stationary distribution as IIDProcess.
type WalkProcess struct {
	home     geom.Point
	pos      geom.Point
	sampler  *Sampler
	f        float64
	stepSize float64
}

// DefaultStepFrac is the default proposal scale relative to the kernel
// support.
const DefaultStepFrac = 0.2

// NewWalk builds a Metropolis walk with the given proposal fraction of
// the (normalized) kernel support. stepFrac <= 0 selects
// DefaultStepFrac.
func NewWalk(home geom.Point, s *Sampler, f float64, stepFrac float64, rng *rand.Rand) *WalkProcess {
	if stepFrac <= 0 {
		stepFrac = DefaultStepFrac
	}
	p := &WalkProcess{
		home:     home,
		sampler:  s,
		f:        f,
		stepSize: stepFrac * s.Kernel().Support() / f,
	}
	p.Reset(rng)
	return p
}

// Home implements Process.
func (p *WalkProcess) Home() geom.Point { return p.home }

// Position implements Process.
func (p *WalkProcess) Position() geom.Point { return p.pos }

// Step implements Process.
func (p *WalkProcess) Step(rng *rand.Rand) {
	cand := geom.Add(p.pos, rng.NormFloat64()*p.stepSize, rng.NormFloat64()*p.stepSize)
	cur := p.density(p.pos)
	next := p.density(cand)
	if next <= 0 {
		return
	}
	if next >= cur || rng.Float64() < next/cur {
		p.pos = cand
	}
}

// Reset implements Process.
func (p *WalkProcess) Reset(rng *rand.Rand) {
	p.pos = SamplePointNear(p.home, p.sampler, p.f, rng)
}

func (p *WalkProcess) density(x geom.Point) float64 {
	return p.sampler.Kernel().Density(p.f * geom.Dist(x, p.home))
}

// StaticProcess never moves: it models base stations and the static-node
// baseline (the equivalent static model of Theorem 8).
type StaticProcess struct {
	pos geom.Point
}

// NewStatic builds a process pinned at pos.
func NewStatic(pos geom.Point) *StaticProcess { return &StaticProcess{pos: pos} }

// Home implements Process.
func (p *StaticProcess) Home() geom.Point { return p.pos }

// Position implements Process.
func (p *StaticProcess) Position() geom.Point { return p.pos }

// Step implements Process.
func (p *StaticProcess) Step(*rand.Rand) {}

// Reset implements Process.
func (p *StaticProcess) Reset(*rand.Rand) {}

var (
	_ Process = (*IIDProcess)(nil)
	_ Process = (*WalkProcess)(nil)
	_ Process = (*StaticProcess)(nil)
)
