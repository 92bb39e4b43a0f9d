// Package delay is the per-packet delay-accounting subsystem: a
// slot-resolution decomposition of one packet's end-to-end delay into
// the stages the paper's Table I reasons about (queueing at the source,
// mobility wait for a relay contact, multihop forwarding, and the BS
// uplink/backbone/downlink transit of the infrastructure modes), plus a
// bounded-memory collector that folds per-pair breakdowns into
// mean/P50/P99 statistics via P-squared quantile estimators.
//
// The package is deliberately passive: routing schemes and the packet
// simulator produce Breakdowns, a Collector aggregates them, and the
// experiments layer folds per-cell Stats, as flat forms (AppendFlat),
// across the (size, seed) grid.
// Aggregation depends only on observation order, which callers fix to
// pair/grid order, so delay statistics are byte-identical for every
// worker count and shard partition.
package delay

import "fmt"

// Breakdown is the slot-resolution delay decomposition of one delivered
// packet (or of one source-destination pair under an analytic delay
// model). Components are in slots; unused stages stay zero (an ad hoc
// scheme has no uplink, a direct-link scheme has no forwarding chain).
type Breakdown struct {
	// SrcQueue is the time spent queued at the source before the first
	// transmission opportunity.
	SrcQueue float64
	// MobilityWait is the time spent waiting for node mobility to
	// produce the required contacts (the dominant term of the
	// Grossglauser-Tse style schemes).
	MobilityWait float64
	// Forwarding is the time spent in the multihop forwarding chain
	// itself: transmission slots and TDMA activation waits.
	Forwarding float64
	// Uplink is the MS -> BS transit time of the infrastructure modes.
	Uplink float64
	// Backbone is the wired backbone transit time, including re-homing
	// and handover transfers.
	Backbone float64
	// Downlink is the BS -> MS transit time, including any
	// re-association stall while the destination's serving BS changes.
	Downlink float64
}

// Total is the end-to-end delay: the sum of every stage.
func (b Breakdown) Total() float64 {
	return b.SrcQueue + b.MobilityWait + b.Forwarding + b.Uplink + b.Backbone + b.Downlink
}

// add accumulates o into b component-wise.
func (b *Breakdown) add(o Breakdown) {
	b.SrcQueue += o.SrcQueue
	b.MobilityWait += o.MobilityWait
	b.Forwarding += o.Forwarding
	b.Uplink += o.Uplink
	b.Backbone += o.Backbone
	b.Downlink += o.Downlink
}

// scale multiplies every component by f.
func (b *Breakdown) scale(f float64) {
	b.SrcQueue *= f
	b.MobilityWait *= f
	b.Forwarding *= f
	b.Uplink *= f
	b.Backbone *= f
	b.Downlink *= f
}

// DefaultQuantiles are the delay quantiles reported when a scenario
// does not request its own: the median and the tail the paper's RT
// discussion cares about.
var DefaultQuantiles = []float64{0.5, 0.99}

// Stats summarizes the delay of one (scheme, size, seed) cell — or a
// deterministic average of such cells across seeds. Every field is a
// float so the cross-seed mean is exact in seed order.
type Stats struct {
	// Samples counts the observed pairs/packets.
	Samples float64
	// Unroutable counts the pairs the scheme could not serve at all
	// (e.g. out of mobility reach); they contribute no delay sample.
	Unroutable float64
	// Mean is the mean total delay in slots.
	Mean float64
	// Quantile holds the estimated total-delay quantiles, aligned with
	// the collector's requested probabilities.
	Quantile []float64
	// Components holds the per-stage means.
	Components Breakdown
}

// Add accumulates o into s component-wise; the quantile slices must
// have the same shape (same requested probabilities).
func (s *Stats) Add(o Stats) error {
	if s.Quantile == nil {
		s.Quantile = make([]float64, len(o.Quantile))
	}
	if len(s.Quantile) != len(o.Quantile) {
		return fmt.Errorf("delay: stats shape mismatch: %d vs %d quantiles", len(s.Quantile), len(o.Quantile))
	}
	s.Samples += o.Samples
	s.Unroutable += o.Unroutable
	s.Mean += o.Mean
	for i := range s.Quantile {
		s.Quantile[i] += o.Quantile[i]
	}
	s.Components.add(o.Components)
	return nil
}

// flatFixed counts the scalar fields of a Stats' flat form: Samples,
// Unroutable, Mean and the six Components.
const flatFixed = 9

// FlatLen is the length of one Stats' flat form with q quantiles.
func FlatLen(q int) int { return flatFixed + q }

// AppendFlat appends s as FlatLen(len(s.Quantile)) plain floats in a
// fixed field order. Field-wise sums and scalings of flat forms are
// exactly Add and a per-field product on Stats, so a cross-seed mean
// can be folded over flat forms and rendered with StatsFromFlat.
func (s Stats) AppendFlat(dst []float64) []float64 {
	c := s.Components
	dst = append(dst, s.Samples, s.Unroutable, s.Mean,
		c.SrcQueue, c.MobilityWait, c.Forwarding, c.Uplink, c.Backbone, c.Downlink)
	return append(dst, s.Quantile...)
}

// StatsFromFlat splits consecutive flat forms with q quantiles each
// back into Stats; the Quantile slices alias flat.
func StatsFromFlat(flat []float64, q int) []Stats {
	w := FlatLen(q)
	out := make([]Stats, len(flat)/w)
	for i := range out {
		f := flat[i*w : (i+1)*w]
		out[i] = Stats{
			Samples:    f[0],
			Unroutable: f[1],
			Mean:       f[2],
			Components: Breakdown{
				SrcQueue: f[3], MobilityWait: f[4], Forwarding: f[5],
				Uplink: f[6], Backbone: f[7], Downlink: f[8],
			},
			Quantile: f[flatFixed:w:w],
		}
	}
	return out
}

// Collector folds per-pair Breakdowns into Stats in bounded memory: a
// running mean per component plus one P-squared quantiles estimator
// over the total delay. Results depend only on observation order.
type Collector struct {
	q     *quantiles
	sum   Breakdown
	total float64
	count int
	unrte int
}

// NewCollector builds a collector for the given total-delay quantile
// probabilities; an empty request selects DefaultQuantiles.
func NewCollector(probs ...float64) (*Collector, error) {
	if len(probs) == 0 {
		probs = DefaultQuantiles
	}
	q, err := newQuantiles(probs...)
	if err != nil {
		return nil, fmt.Errorf("delay: %w", err)
	}
	return &Collector{q: q}, nil
}

// Observe records one pair's (or packet's) delay breakdown.
func (c *Collector) Observe(b Breakdown) {
	c.count++
	c.sum.add(b)
	t := b.Total()
	c.total += t
	c.q.observe(t)
}

// ObserveUnroutable records one pair the scheme could not serve.
func (c *Collector) ObserveUnroutable() { c.unrte++ }

// Stats renders the collected statistics. A collector with no
// observations reports zero delay with Samples == 0; callers decide
// whether that is an error.
func (c *Collector) Stats() Stats {
	st := Stats{
		Samples:    float64(c.count),
		Unroutable: float64(c.unrte),
	}
	st.Quantile = make([]float64, len(c.q.probs))
	if c.count == 0 {
		return st
	}
	st.Mean = c.total / float64(c.count)
	st.Components = c.sum
	st.Components.scale(1 / float64(c.count))
	for i, e := range c.q.est {
		st.Quantile[i] = e.quantile()
	}
	return st
}
