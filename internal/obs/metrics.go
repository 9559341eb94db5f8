package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric: one atomic.Uint64, so
// Inc on a request hot path is a single lock-free instruction.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64-valued metric that can move both ways (in-flight
// requests, steps/sec). Updates CAS the float bits, so concurrent Set
// and Add calls never tear.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket duration histogram safe for concurrent
// use: one atomic increment per observation, no locks. Bucket upper
// bounds are in seconds (the Prometheus convention) and fixed at
// creation — the standard serving trade-off of lock-free recording
// against interpolated quantiles.
type Histogram struct {
	bounds  []float64       // ascending upper bounds, seconds
	buckets []atomic.Uint64 // len(bounds)+1; the last is +Inf overflow
	count   atomic.Uint64
	sumNs   atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.ObserveSeconds(d.Seconds())
}

// ObserveSeconds records one observation given in seconds.
func (h *Histogram) ObserveSeconds(s float64) {
	if s < 0 {
		s = 0
	}
	i := sort.SearchFloat64s(h.bounds, s)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(s * 1e9))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }

// Mean returns the mean observation in seconds (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// CounterVec is a counter family partitioned by label values. Children
// are created on first With and cached; callers on hot paths resolve
// their child once at startup and then update it lock-free.
type CounterVec struct {
	fam *family
}

// With returns the child counter for the given label values (one per
// label name declared at registration; With panics on arity mismatch).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.child(labelValues).(*Counter)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	fam *family
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.fam.child(labelValues).(*Gauge)
}

// HistogramVec is a histogram family partitioned by label values. All
// children share the family's bucket bounds.
type HistogramVec struct {
	fam *family
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.fam.child(labelValues).(*Histogram)
}
