package telemetry

import (
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.LatencyHistogram("h_seconds")
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Inc()
	g.Dec()
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("nil metrics accumulated: c=%d g=%d", c.Value(), g.Value())
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram observed: %+v", s)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if rep := r.Report(); len(rep.Counters) != 0 {
		t.Fatalf("nil registry report: %+v", rep)
	}
}

func TestSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "route", "/x", "code", "200")
	// same labels, different order → same series
	b := r.Counter("hits_total", "code", "200", "route", "/x")
	if a != b {
		t.Fatal("label order changed series identity")
	}
	a.Inc()
	if got := r.Counter("hits_total", "route", "/x", "code", "200").Value(); got != 1 {
		t.Fatalf("value = %d", got)
	}
	if c := r.Counter("hits_total", "route", "/y", "code", "200"); c == a {
		t.Fatal("distinct labels collided")
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// bounds are upper-inclusive: 0.5,1 → ≤1; 1.5 → ≤2; 3 → ≤4; 100 → +Inf
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-106) > 1e-9 {
		t.Fatalf("sum = %v", s.Sum)
	}
	if math.Abs(s.Mean()-21.2) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", []float64{10, 20, 30, 40})
	// 100 observations spread uniformly 1..100 conceptually: put 25 in each
	// of the four buckets by observing midpoints repeatedly.
	for i := 0; i < 25; i++ {
		h.Observe(5)
		h.Observe(15)
		h.Observe(25)
		h.Observe(35)
	}
	s := h.Snapshot()
	// p50 rank = 50 → falls exactly at the end of bucket 2 (cum 25,50):
	// interpolation within (10,20] with frac (50-25)/25 = 1 → 20.
	if got := s.Quantile(0.50); math.Abs(got-20) > 1e-9 {
		t.Fatalf("p50 = %v, want 20", got)
	}
	// p95 rank = 95 → bucket (30,40], frac (95-75)/25 = 0.8 → 38.
	if got := s.Quantile(0.95); math.Abs(got-38) > 1e-9 {
		t.Fatalf("p95 = %v, want 38", got)
	}
	// p0 → lower edge of first non-empty bucket
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("p0 = %v", got)
	}
	// p100 → top of last occupied bucket
	if got := s.Quantile(1); math.Abs(got-40) > 1e-9 {
		t.Fatalf("p100 = %v", got)
	}
	// overflow values clamp to the highest finite bound
	h.Observe(10000)
	if got := h.Snapshot().Quantile(1); math.Abs(got-40) > 1e-9 {
		t.Fatalf("overflow quantile = %v", got)
	}
	// empty histogram
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("a", []float64{1, 2})
	b := r.Histogram("b", []float64{1, 2})
	a.Observe(0.5)
	a.Observe(1.5)
	b.Observe(1.5)
	b.Observe(5)
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 4 || math.Abs(m.Sum-8.5) > 1e-9 {
		t.Fatalf("merged count=%d sum=%v", m.Count, m.Sum)
	}
	want := []int64{1, 2, 1}
	for i, w := range want {
		if m.Counts[i] != w {
			t.Fatalf("merged bucket %d = %d, want %d", i, m.Counts[i], w)
		}
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("par_total")
			h := r.Histogram("par_seconds", []float64{1})
			g := r.Gauge("par_gauge")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.5)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("par_total").Value(); got != 8000 {
		t.Fatalf("counter = %d", got)
	}
	if s := r.Histogram("par_seconds", nil).Snapshot(); s.Count != 8000 || s.Counts[0] != 8000 {
		t.Fatalf("histogram = %+v", s)
	}
	if got := r.Gauge("par_gauge").Value(); got != 8000 {
		t.Fatalf("gauge = %d", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "route", "/tn/start").Add(3)
	r.Counter("req_total", "route", "/tn/status").Add(1)
	r.Gauge("in_flight").Set(2)
	h := r.Histogram("lat_seconds", []float64{0.1, 1}, "route", "/tn/start")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{route="/tn/start"} 3`,
		`req_total{route="/tn/status"} 1`,
		"# TYPE in_flight gauge",
		"in_flight 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{route="/tn/start",le="0.1"} 1`,
		`lat_seconds_bucket{route="/tn/start",le="1"} 2`,
		`lat_seconds_bucket{route="/tn/start",le="+Inf"} 3`,
		`lat_seconds_sum{route="/tn/start"} 5.55`,
		`lat_seconds_count{route="/tn/start"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// the TYPE header appears once per family, not per series
	if strings.Count(out, "# TYPE req_total counter") != 1 {
		t.Fatalf("duplicated TYPE header:\n%s", out)
	}

	// and over HTTP
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
}

func TestReport(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(7)
	r.Gauge("g").Set(-2)
	h := r.Histogram("h_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	rep := r.Report()
	if rep.Counters["c_total"] != 7 || rep.Gauges["g"] != -2 {
		t.Fatalf("report scalars: %+v", rep)
	}
	hr, ok := rep.Histograms["h_seconds"]
	if !ok || hr.Count != 2 || math.Abs(hr.Sum-2) > 1e-9 {
		t.Fatalf("report histogram: %+v", hr)
	}
	if hr.P50 <= 0 || hr.P99 > 2 {
		t.Fatalf("percentiles: %+v", hr)
	}
	var b strings.Builder
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"p95"`) {
		t.Fatalf("json: %s", b.String())
	}
}

// TestSeriesLookupAllocatesNothing guards the per-request counters of
// the TN service: finding a registered series renders its key on the
// stack and copies no labels.
func TestSeriesLookupAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	route, code := "/tn/policyExchange", "2xx"
	lookups := map[string]func(){
		"0 pairs": func() { r.Counter("requests_total").Inc() },
		"1 pair":  func() { r.Gauge("active", "role", "controller").Inc() },
		"2 pairs unsorted": func() {
			r.Counter("http_requests_total", "route", route, "code", code).Inc()
			r.LatencyHistogram("http_request_seconds", "route", route, "code", code).Observe(0.001)
		},
	}
	for name, lookup := range lookups {
		lookup() // register
		if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
			t.Errorf("%s: lookup allocates %.1f times, want 0", name, allocs)
		}
	}
}

// TestLookupKeyMatchesSeriesKey checks that the key a lookup renders is
// the key of the series makeSeries registers, whatever the label order.
func TestLookupKeyMatchesSeriesKey(t *testing.T) {
	cases := [][]string{
		nil,
		{"a", "1"},
		{"b", "2", "a", "1"},
		{"z", "1", "m", "2", "a", "3", "q", "4"},
		{"k", "first", "a", "x", "k", "second"}, // duplicate keys keep their order
		{"b", "2", "a"},                         // dangling key dropped
		{"dangling"},
		{"v", `quote " backslash \ newline` + "\n", "a", `\"`},
		{"i", "9", "h", "8", "g", "7", "f", "6", "e", "5", "d", "4", "c", "3", "b", "2", "a", "1", "j", "0"},
	}
	for _, labels := range cases {
		want := makeSeries("m", slices.Clone(labels)).key()
		if got := string(appendKey(nil, "m", labels)); got != want {
			t.Errorf("labels %q: lookup key %q, series key %q", labels, got, want)
		}
	}
	if got, want := string(appendKey(nil, "m", []string{"v", "a\"b\\c\nd", "a", "1"})), `m{a="1",v="a\"b\\c\nd"}`; got != want {
		t.Errorf("escaped key %s, want %s", got, want)
	}
	r := NewRegistry()
	labels := []string{"route", "/x", "code", "200"}
	c := r.Counter("hits_total", labels...)
	labels[1] = "/changed"
	if r.Counter("hits_total", "code", "200", "route", "/x") != c {
		t.Fatal("registration kept the caller's label slice")
	}
}

// TestLatencyBucketsResolveMicroseconds: the default latency buckets run
// from 1µs to 10s in a 1–2.5–5 progression, so a verify-cache hit (about
// 2µs) and a 20µs decode land in buckets of their own, and observing into
// a series allocates nothing.
func TestLatencyBucketsResolveMicroseconds(t *testing.T) {
	if len(LatencyBuckets) != 22 || LatencyBuckets[0] != 1e-6 || LatencyBuckets[len(LatencyBuckets)-1] != 10 {
		t.Fatalf("LatencyBuckets = %v, want 22 bounds from 1e-06 to 10", LatencyBuckets)
	}
	for i := 1; i < len(LatencyBuckets); i++ {
		lo, hi := LatencyBuckets[i-1], LatencyBuckets[i]
		if step := []float64{2.5, 2, 2}[(i-1)%3]; math.Abs(hi/lo-step) > 1e-9 {
			t.Fatalf("bound %d: %g after %g, want ×%g", i, hi, lo, step)
		}
	}
	r := NewRegistry()
	h := r.LatencyHistogram("op_seconds", "layer", "verify")
	h.Observe(2e-6)
	h.Observe(20e-6)
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(3e-6) }); allocs != 0 {
		t.Errorf("Observe allocates %.1f times", allocs)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`op_seconds_bucket{layer="verify",le="1e-06"} 0`,
		`op_seconds_bucket{layer="verify",le="2.5e-06"} 1`,
		`op_seconds_bucket{layer="verify",le="5e-06"} 102`, // AllocsPerRun runs once more than asked
		`op_seconds_bucket{layer="verify",le="1e-05"} 102`,
		`op_seconds_bucket{layer="verify",le="2.5e-05"} 103`,
		`op_seconds_bucket{layer="verify",le="10"} 103`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}
