package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one entry of the metric catalogue; BENCHMARK.json lists
// the same names, units and directions (suite_test.go checks that).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// End-to-end metrics: what an operator of the TN service pays, measured
// with tracing off. Every workload reports every one of them. Join rate,
// latency, CPU per join and RSS are per-layer "load." and "runtime."
// metrics instead: their run-to-run spread on the reference host exceeds
// 10%, too wide for a regression bound.
var (
	mSetup   = metricDef{"setup_s", "s", "lower"}
	mAllocKB = metricDef{"alloc_kb_per_join", "KiB", "lower"}
	mAllocs  = metricDef{"allocs_per_join", "count", "lower"}

	endToEnd = []metricDef{mSetup, mAllocKB, mAllocs}
)

// perLayer is the traced run's catalogue, one layer per name prefix. A
// metric a workload does not exercise (store puts on join-hot, standby
// ships outside join-cluster) reads 0.
var perLayer = []metricDef{
	{"load.joins_per_s", "1/s", "higher"},
	{"load.join_p50_ms", "ms", "lower"},
	{"load.join_p99_ms", "ms", "lower"},
	{"load.cpu_us_per_join", "us", "lower"},
	{"load.gen_late_p99_ms", "ms", "lower"},
	{"runtime.rss_peak_mb", "MiB", "lower"},
	{"wsrpc.calls_per_join", "count", "lower"},
	{"wsrpc.bytes_per_join", "B", "lower"},
	{"wsrpc.call_us_per_join", "us", "lower"},
	{"wsrpc.handler_us_per_join", "us", "lower"},
	{"wsrpc.transport_us_per_join", "us", "lower"},
	{"wsrpc.client_us_per_join", "us", "lower"},
	{"wsrpc.client_codec_us_per_join", "us", "lower"},
	{"wsrpc.tn_standalone_us", "us", "lower"},
	{"xmldom.parse_us_per_join", "us", "lower"},
	{"xmldom.serialize_us_per_join", "us", "lower"},
	{"negotiation.decode_us_per_join", "us", "lower"},
	{"negotiation.engine_us_per_join", "us", "lower"},
	{"negotiation.client_engine_us_per_join", "us", "lower"},
	{"negotiation.messages_per_join", "count", "lower"},
	{"xtnl.cred_decode_us", "us", "lower"},
	{"xtnl.term_eval_us", "us", "lower"},
	{"pki.verify_miss_us", "us", "lower"},
	{"pki.verify_hit_us", "us", "lower"},
	{"pki.verify_misses_per_join", "count", "lower"},
	{"pki.verify_hit_ratio", "ratio", "higher"},
	{"store.put_us", "us", "lower"},
	{"store.write_p99_ms", "ms", "lower"},
	{"store.fsyncs_per_put", "count", "lower"},
	{"store.batch_mean", "count", "higher"},
	{"partydb.reload_us", "us", "lower"},
	{"partydb.reloads_per_write", "count", "lower"},
	{"partydb.load_us", "us", "lower"},
	{"cacher.hit_ratio", "ratio", "higher"},
	{"cacher.coalesced_per_miss", "count", "higher"},
	{"core.join_plain_us", "us", "lower"},
	{"core.additivity_residual_pct", "%", "lower"},
	{"cluster.ships_per_join", "count", "lower"},
	{"cluster.ship_us_per_join", "us", "lower"},
	{"cluster.standby_handler_us", "us", "lower"},
	{"cluster.forwards_per_join", "count", "lower"},
	{"runtime.gc_per_1k_joins", "count", "lower"},
	{"runtime.gc_pause_us_per_join", "us", "lower"},
	{"runtime.goroutines_delta", "count", "lower"},
	{"trace.attributed_pct", "%", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// percentile returns the q-quantile of sorted samples by nearest rank:
// the smallest sample with at least q of all samples at or below it.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// tailQuantiles are the percentiles a tail is reported at, highest last.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailQuantile returns the highest of tailQuantiles that still has at
// least ten of n samples beyond it, so the tail it reports is not a
// single outlier; 0 when even the median lacks ten.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so
// -compare's spreads match those Python computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// ms converts a duration to milliseconds with microsecond precision.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
