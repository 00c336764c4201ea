package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the default histogram bounds for request and phase
// latencies, in seconds: 22 bounds from 1µs to 10s in a 1–2.5–5
// progression. The paper's Fig. 9 operations sit in the 1ms–4s band on
// 2008 hardware; the range keeps slow cross-network deployments
// resolvable, and its microsecond end the layers where most per-message
// cost sits: a verify-cache hit takes 1–3µs, a message decode and a term
// evaluation tens of microseconds.
var LatencyBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets are the default bounds for small-integer distributions
// (protocol rounds, tree nodes, disclosures per negotiation).
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Histogram is a fixed-bucket histogram with atomic observation. The
// bounds are upper bounds; an implicit +Inf bucket catches overflow.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, cumulative only at snapshot
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since t0, in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Snapshot captures a consistent-enough view for rendering (individual
// fields are atomic; cross-field skew under concurrent writes is at most
// a few in-flight observations).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.total.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram, mergeable
// with snapshots of identically-bucketed histograms.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds; Counts has one extra +Inf slot
	Counts []int64
	Count  int64
	Sum    float64
}

// Merge adds other into a copy of s and returns it. Snapshots must share
// bucket bounds (the result keeps s's bounds; mismatched counts beyond
// the shared length are folded into the overflow bucket).
func (s HistogramSnapshot) Merge(other HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: s.Bounds,
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count + other.Count,
		Sum:    s.Sum + other.Sum,
	}
	copy(out.Counts, s.Counts)
	for i, c := range other.Counts {
		j := i
		if j >= len(out.Counts) {
			j = len(out.Counts) - 1
		}
		if j >= 0 {
			out.Counts[j] += c
		}
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket, the standard Prometheus histogram
// estimate. Values in the +Inf bucket report the highest finite bound.
// Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i >= len(s.Bounds) {
				// overflow bucket: no upper bound to interpolate toward
				if len(s.Bounds) == 0 {
					return 0
				}
				return s.Bounds[len(s.Bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Bounds[i]
			// position of the rank within this bucket
			frac := (rank - float64(cum-c)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + (upper-lower)*frac
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the arithmetic mean of all observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}
