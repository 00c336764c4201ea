package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.01, 1}, {0.5, 50}, {0.505, 51}, {0.99, 99}, {0.999, 100}, {1, 100}}
	for _, c := range cases {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10_000, 0.999}, {100_000, 0.9999}, {1e7, 0.9999}}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(values, n=4).
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.5, 1.25, 9, 2, 7, 4.5, 8}, [3]float64{2, 4.5, 8}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// opStreamHash digests the first n ops of every worker's stream for the
// join-churn and join-cluster shapes, plus join-cold's rogue set.
func opStreamHash(seed int64, n int) string {
	h := sha256.New()
	for w := 0; w < workers; w++ {
		churn := newOpGen(seed, w, repeatMembers, 0, churnWriteP, workerSlots(w))
		clu := newOpGen(seed, w, repeatMembers, clusterNodes, 0, nil)
		for i := 0; i < n; i++ {
			fmt.Fprintf(h, "%+v %+v\n", churn.next(), clu.next())
		}
	}
	fmt.Fprintf(h, "%v", rogueSet(seed, coldMembers))
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSeedFixesInputs(t *testing.T) {
	a, b := opStreamHash(7, 2000), opStreamHash(7, 2000)
	if a != b {
		t.Fatalf("seed 7 gave two different input streams: %s vs %s", a, b)
	}
	if c := opStreamHash(8, 2000); c == a {
		t.Fatalf("seeds 7 and 8 gave the same input stream %s", a)
	}
	// The streams must exercise what they claim: writes, every member,
	// every node, and exactly 1 in rogueEvery rogue members.
	g := newOpGen(7, 1, repeatMembers, clusterNodes, churnWriteP, workerSlots(1))
	writes, members, nodes := 0, map[int]bool{}, map[int]bool{}
	for i := 0; i < 2000; i++ {
		o := g.next()
		if o.write {
			writes++
			if o.slot%workers != 1 || o.slot < 1 || o.slot >= churnSlots {
				t.Fatalf("worker 1 drew slot %d outside its partition", o.slot)
			}
			continue
		}
		members[o.member], nodes[o.node] = true, true
	}
	if writes < 140 || writes > 260 || len(members) != repeatMembers || len(nodes) != clusterNodes {
		t.Fatalf("stream shape: %d writes of 2000, members %v, nodes %v", writes, members, nodes)
	}
	rogue := 0
	for _, r := range rogueSet(7, coldMembers) {
		if r {
			rogue++
		}
	}
	if rogue != coldMembers/rogueEvery {
		t.Fatalf("rogueSet marks %d of %d members, want %d", rogue, coldMembers, coldMembers/rogueEvery)
	}
}

func TestSelfTimeOverOverlappingChildren(t *testing.T) {
	parent := spanRec{Start: 0, End: 100}
	kids := []spanRec{
		{Start: 20, End: 50},
		{Start: 10, End: 30},  // overlaps the first
		{Start: 60, End: 70},  // disjoint
		{Start: 62, End: 65},  // nested in the previous
		{Start: 90, End: 120}, // runs past the parent's end
		{Start: -5, End: 0},   // ends where the parent starts
	}
	if got := coverage(parent, kids); got != 60 {
		t.Fatalf("coverage = %d, want 60 ([10,50] + [60,70] + [90,100])", got)
	}
	if got := selfTime(parent, kids); got != 40 {
		t.Fatalf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	c := spanCtx{trace: 12, id: 345}
	got, ok := parseSpanCtx(c.String())
	if !ok || got.trace != 12 || got.id != 345 {
		t.Fatalf("parseSpanCtx(%q) = %+v, %v", c.String(), got, ok)
	}
	for _, bad := range []string{"", "12", "0.5", "x.5", "5.y"} {
		if _, ok := parseSpanCtx(bad); ok {
			t.Errorf("parseSpanCtx(%q) accepted", bad)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{Name: "join_p50_ms", Better: "lower", Bound: 0.1}
	higher := bound{Name: "joins_per_s", Better: "higher", Bound: 0.1}
	cases := []struct {
		a, b []float64
		m    bound
		want string
	}{
		{[]float64{10, 10.1, 9.9}, []float64{10.2, 10, 10.1}, lower, "same"},
		{[]float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, lower, "worse"},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, lower, "better"},
		{[]float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, higher, "better"},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, higher, "worse"},
		{[]float64{10, 15, 5}, []float64{10, 10.1, 9.9}, lower, "unresolved"},
		{[]float64{10, 10.1, 9.9}, []float64{10, 15, 5}, bound{Name: "setup_s", Better: "lower", Bound: 0.25}, "unresolved"},
		{nil, []float64{10}, lower, "unresolved"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.a, c.b, c.m.Better, got, c.want)
		}
	}
}

// TestBenchmarkFileMatchesCatalogue keeps BENCHMARK.json and the metric
// and workload tables of this program in step.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	doc, err := readBenchmark(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, want)
		}
	}
}

// smokeConfig is a ~1 s run with tiny pools.
func smokeConfig(trace bool) *runConfig {
	cfg := defaultConfig(1, 600*time.Millisecond)
	cfg.warmup = 100 * time.Millisecond
	cfg.coldMembers = 4 * rogueEvery
	cfg.minSetups = 2
	cfg.setupBudget = 0
	cfg.probeReps = 2
	cfg.trace = trace
	return cfg
}

// TestSmokeEveryWorkload runs every workload untraced and traced and
// checks that each run is correct, reports its whole catalogue, and
// shows the mechanism it was built to exercise.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			res, err := runWorkload(spec, smokeConfig(false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d notes=%v", res.Correct, res.Failed, res.Attempted, res.notes)
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.name]
				if !ok || v.Value <= 0 || v.Unit != m.unit {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive value in %s", m.name, v, ok, m.unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}

			tr, err := runWorkload(spec, smokeConfig(true))
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct {
				t.Fatalf("traced run incorrect: %v", tr.notes)
			}
			if len(tr.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want the %d per-layer ones", len(tr.Metrics), len(perLayer))
			}
			layer := func(name string) float64 {
				v, ok := tr.Metrics[name]
				if !ok {
					t.Fatalf("traced run lacks %s", name)
				}
				return v.Value
			}
			// Calls and the client engine cover most of a join; the client
			// codec time between them is real work, so not all of it.
			if got := layer("trace.attributed_pct"); got <= 50 || got >= 100 {
				t.Errorf("trace.attributed_pct = %.1f, want in (50, 100)", got)
			}
			if got := layer("wsrpc.client_codec_us_per_join"); got <= 0 {
				t.Errorf("wsrpc.client_codec_us_per_join = %g, want > 0", got)
			}
			if got := layer("wsrpc.calls_per_join"); got < 4 {
				t.Errorf("wsrpc.calls_per_join = %g, want >= 4", got)
			}
			ships := layer("cluster.ships_per_join")
			if (spec.name == "join-cluster") != (ships > 0) {
				t.Errorf("cluster.ships_per_join = %g on %s", ships, spec.name)
			}
			reloads := layer("partydb.reloads_per_write")
			if (spec.name == "join-churn") != (reloads > 0) {
				t.Errorf("partydb.reloads_per_write = %g on %s", reloads, spec.name)
			}
			if spec.name == "fig9-solo" && layer("core.join_plain_us") <= 0 {
				t.Errorf("fig9-solo probes did not time the plain join")
			}
		})
	}
}

// TestTrustedRogueFailsTheRun: if the controller trusted the rogue CA,
// join-cold's adversarial members would be admitted; the suite must
// count each such grant as a failure and mark the run incorrect.
func TestTrustedRogueFailsTheRun(t *testing.T) {
	cfg := smokeConfig(false)
	cfg.trustRogue = true
	res, err := runWorkload(workloadByName("join-cold"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("run with a trusted rogue CA: correct=%v failed=%d", res.Correct, res.Failed)
	}
}
