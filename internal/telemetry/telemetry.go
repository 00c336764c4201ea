// Package telemetry is the reproduction's stdlib-only observability
// layer: atomic counters, gauges and fixed-bucket latency histograms
// collected in a Registry, a lightweight span tracer for per-negotiation
// traces, a hand-rendered Prometheus text exposition, and a structured
// JSON run report with per-series percentiles.
//
// Everything is nil-tolerant by design: a nil *Registry hands out nil
// metrics, and every method on a nil *Counter, *Gauge, *Histogram,
// *Trace or *Span is a no-op. Instrumented hot paths therefore pay a
// single pointer comparison when telemetry is disabled (see the
// BenchmarkTelemetryCounterDisabled guard in the repository root).
package telemetry

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n. No-op on a nil gauge.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (negative to subtract). No-op on a nil gauge.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// series identifies one registered time series: a metric name plus its
// sorted label pairs.
type series struct {
	name   string
	labels []string // alternating key, value; sorted by key
}

// key renders the canonical series identity: name{k="v",...}.
func (s series) key() string { return string(appendKey(nil, s.name, s.labels)) }

// maxKeyPairs bounds the label pairs appendKey orders on the stack;
// longer label lists go through makeSeries and allocate.
const maxKeyPairs = 8

// appendKey appends the key of the series makeSeries(name, labels)
// describes — name{k="v",...}, a dangling key dropped, pairs in stable
// key order — without building that series, so looking up an existing
// series allocates nothing.
func appendKey(b []byte, name string, labels []string) []byte {
	b = append(b, name...)
	n := len(labels) / 2
	if n == 0 {
		return b
	}
	b = append(b, '{')
	if n > maxKeyPairs {
		b = appendLabels(b, makeSeries(name, labels).labels)
		return append(b, '}')
	}
	var order [maxKeyPairs]int
	for i := 0; i < n; i++ { // insertion sort: stable, like makeSeries
		j := i
		for ; j > 0 && labels[2*order[j-1]] > labels[2*i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	for k, i := range order[:n] {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendLabel(b, labels[2*i], labels[2*i+1])
	}
	return append(b, '}')
}

// appendLabels appends the pairs of labels in the order given.
func appendLabels(b []byte, labels []string) []byte {
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendLabel(b, labels[i], labels[i+1])
	}
	return b
}

// appendLabel appends k="v" with '\\', '"' and newline escaped in v.
func appendLabel(b []byte, k, v string) []byte {
	b = append(b, k...)
	b = append(b, '=', '"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func makeSeries(name string, labels []string) series {
	if len(labels)%2 != 0 {
		labels = labels[:len(labels)-1] // drop a dangling key
	}
	if len(labels) > 2 {
		// sort pairs by key for a canonical identity
		type kv struct{ k, v string }
		pairs := make([]kv, 0, len(labels)/2)
		for i := 0; i+1 < len(labels); i += 2 {
			pairs = append(pairs, kv{labels[i], labels[i+1]})
		}
		slices.SortStableFunc(pairs, func(a, b kv) int { return strings.Compare(a.k, b.k) })
		labels = labels[:0:0]
		for _, p := range pairs {
			labels = append(labels, p.k, p.v)
		}
	}
	return series{name: name, labels: labels}
}

// Registry is a named collection of metrics. The zero value is not
// usable; call NewRegistry. A nil *Registry is valid everywhere and
// hands out nil (no-op) metrics, so telemetry can be switched off by
// leaving the registry unset.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*counterSeries
	gauges    map[string]*gaugeSeries
	histories map[string]*histogramSeries
}

type counterSeries struct {
	series
	c *Counter
}

type gaugeSeries struct {
	series
	g *Gauge
}

type histogramSeries struct {
	series
	h *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*counterSeries),
		gauges:    make(map[string]*gaugeSeries),
		histories: make(map[string]*histogramSeries),
	}
}

// keyBufSize is the stack buffer a lookup renders its series key into;
// a longer key spills to the heap.
const keyBufSize = 256

// Counter returns (registering on first use) the counter for name and
// the alternating key/value label pairs. nil registry → nil counter.
// Looking up a registered series allocates nothing; labels is copied
// only when the series is registered.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	var buf [keyBufSize]byte
	k := appendKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if cs, ok := r.counters[string(k)]; ok {
		return cs.c
	}
	cs := &counterSeries{series: makeSeries(name, slices.Clone(labels)), c: &Counter{}}
	r.counters[string(k)] = cs
	return cs.c
}

// Gauge returns (registering on first use) the gauge for name/labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	var buf [keyBufSize]byte
	k := appendKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if gs, ok := r.gauges[string(k)]; ok {
		return gs.g
	}
	gs := &gaugeSeries{series: makeSeries(name, slices.Clone(labels)), g: &Gauge{}}
	r.gauges[string(k)] = gs
	return gs.g
}

// Histogram returns (registering on first use) the histogram for
// name/labels with the given bucket upper bounds. Buckets are fixed at
// registration; later calls with different buckets return the existing
// histogram unchanged.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	var buf [keyBufSize]byte
	k := appendKey(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if hs, ok := r.histories[string(k)]; ok {
		return hs.h
	}
	hs := &histogramSeries{series: makeSeries(name, slices.Clone(labels)), h: newHistogram(buckets)}
	r.histories[string(k)] = hs
	return hs.h
}

// LatencyHistogram is Histogram with the default latency buckets
// (seconds, 1µs…10s).
func (r *Registry) LatencyHistogram(name string, labels ...string) *Histogram {
	return r.Histogram(name, LatencyBuckets, labels...)
}

// snapshot takes the registry lock just long enough to copy the series
// lists; rendering happens outside the lock.
func (r *Registry) snapshot() (cs []*counterSeries, gs []*gaugeSeries, hs []*histogramSeries) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

// snapshotSeries returns sorted copies of all series for rendering.
func (r *Registry) snapshotLocked() (cs []*counterSeries, gs []*gaugeSeries, hs []*histogramSeries) {
	for _, c := range r.counters {
		cs = append(cs, c)
	}
	for _, g := range r.gauges {
		gs = append(gs, g)
	}
	for _, h := range r.histories {
		hs = append(hs, h)
	}
	// Sort by (name, key) so every family is contiguous: the exposition
	// emits one TYPE header per family.
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].name != cs[j].name {
			return cs[i].name < cs[j].name
		}
		return cs[i].key() < cs[j].key()
	})
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].name != gs[j].name {
			return gs[i].name < gs[j].name
		}
		return gs[i].key() < gs[j].key()
	})
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].name != hs[j].name {
			return hs[i].name < hs[j].name
		}
		return hs[i].key() < hs[j].key()
	})
	return cs, gs, hs
}
