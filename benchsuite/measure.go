package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// runConfig is one workload run. main fills it from the flags; the tests
// shrink the windows and pools.
type runConfig struct {
	seed   int64
	window time.Duration // timed window (split in halves when traced)
	warmup time.Duration // untimed load before the window
	trace  bool
	// spansOut, when set on a traced run, receives the spans as JSON.
	spansOut string
	// coldMembers is join-cold's member pool.
	coldMembers int
	// minSetups and setupBudget: the fixture is built at least minSetups
	// times and until setupBudget is spent, and setup_s is the median.
	minSetups   int
	setupBudget time.Duration
	// probeReps repeats each layer probe to steady its timing.
	probeReps int
	// trustRogue makes join-cold's controller trust the rogue CA, so its
	// adversarial members are granted and the run must fail.
	trustRogue bool
}

func defaultConfig(seed int64, window time.Duration) *runConfig {
	return &runConfig{
		seed:        seed,
		window:      window,
		warmup:      3 * time.Second,
		coldMembers: coldMembers,
		minSetups:   3,
		setupBudget: time.Second,
		probeReps:   20,
	}
}

// maxSetups caps the set-up repetitions of a fast fixture.
const maxSetups = 500

// join is one join that returned its expected verdict.
type join struct {
	end time.Time
	lat time.Duration
}

// tally is what a load loop measured.
type tally struct {
	joins  []join
	writes int64
	late   []time.Duration // open loop: send time minus due time
	failed int64
	errs   []error // the first few failures
}

func (t *tally) attempted() int64 { return int64(len(t.joins)) + t.writes + t.failed }

func (t *tally) latencies() []time.Duration {
	out := make([]time.Duration, len(t.joins))
	for i, j := range t.joins {
		out[i] = j.lat
	}
	return out
}

func (t *tally) merge(o *tally) {
	t.joins = append(t.joins, o.joins...)
	t.writes += o.writes
	t.late = append(t.late, o.late...)
	t.failed += o.failed
	if len(t.errs) < 5 {
		t.errs = append(t.errs, o.errs...)
	}
}

// note records one op's outcome.
func (t *tally) note(o op, d time.Duration, err error) {
	switch {
	case err != nil:
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err)
		}
	case o.write:
		t.writes++
	default:
		t.joins = append(t.joins, join{end: time.Now(), lat: d})
	}
}

// runOp runs one op, under a root span when the tracer is recording.
func (e *env) runOp(ctx context.Context, o op) (time.Duration, error) {
	name := "join"
	if o.write {
		name = "write"
	}
	root := e.tr.root(name)
	if root != nil {
		ctx = withSpan(ctx, root.ctx())
	}
	d, err := e.do(ctx, o)
	root.end()
	return d, err
}

// drive applies load for d and returns what it measured.
func (e *env) drive(ctx context.Context, spec *workloadSpec, gens []*opGen, d time.Duration) *tally {
	if spec.open {
		return e.openLoop(ctx, gens[0], d)
	}
	return e.closedLoop(ctx, gens, d)
}

// closedLoop runs one goroutine per generator, each sending its next op
// as soon as the previous one returns, until d has passed.
func (e *env) closedLoop(ctx context.Context, gens []*opGen, d time.Duration) *tally {
	start := time.Now()
	until := start.Add(d)
	parts := make([]*tally, len(gens))
	var wg sync.WaitGroup
	for i, g := range gens {
		parts[i] = &tally{}
		wg.Add(1)
		go func(t *tally, g *opGen) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(until) {
				o := g.next()
				lat, err := e.runOp(ctx, o)
				t.note(o, lat, err)
			}
		}(parts[i], g)
	}
	wg.Wait()
	total := &tally{}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// openLoop sends op i at start + i/fig9Rate whether or not op i-1 was
// slow, one in flight. Latency counts from the due time, so a stall is
// charged to every op it delays.
func (e *env) openLoop(ctx context.Context, g *opGen, d time.Duration) *tally {
	interval := time.Second / fig9Rate
	start := time.Now()
	t := &tally{}
	for i := 0; ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		o := g.next()
		lat, err := e.runOp(ctx, o)
		t.late = append(t.late, sent.Sub(due))
		t.note(o, sent.Sub(due)+lat, err)
	}
	return t
}

// usage is a process resource snapshot.
type usage struct {
	cpu        time.Duration
	maxRSSKiB  int64
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	pauseNs    uint64
	goroutines int
}

func sampleUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKiB:  int64(ru.Maxrss),
		totalAlloc: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
		goroutines: runtime.NumGoroutine(),
	}, nil
}

// cpuMark is the process CPU time used by a point in time.
type cpuMark struct {
	at  time.Time
	cpu time.Duration
}

// markCPU samples process CPU time at start and at every slice after
// it, n+1 marks in all, and delivers them once the last is taken.
func markCPU(start time.Time, slice time.Duration, n int) <-chan []cpuMark {
	out := make(chan []cpuMark, 1)
	go func() {
		marks := make([]cpuMark, 0, n+1)
		for k := 0; k <= n; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * slice)))
			var ru syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
				break
			}
			marks = append(marks, cpuMark{at: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())})
		}
		out <- marks
	}()
	return out
}

// slicing splits a window into equal slices: 1 s for a closed loop, 5 s
// for the open loop so each slice holds 1000 joins and its p99 has ten
// samples beyond it. A window shorter than a slice is one slice.
func slicing(spec *workloadSpec, window time.Duration) (time.Duration, int) {
	slice := time.Second
	if spec.open {
		slice = 5 * time.Second
	}
	n := int(window / slice)
	if n < 1 {
		return window, 1
	}
	return slice, n
}

// sliceStats are one slice's throughput, latency and CPU per join.
type sliceStats struct {
	rate, p50, p99, cpu []float64
}

// perSlice buckets joins by completion time into the slices between
// consecutive marks.
func perSlice(joins []join, marks []cpuMark) sliceStats {
	var st sliceStats
	for k := 0; k+1 < len(marks); k++ {
		from, to := marks[k], marks[k+1]
		var lat []time.Duration
		for _, j := range joins {
			if !j.end.Before(from.at) && j.end.Before(to.at) {
				lat = append(lat, j.lat)
			}
		}
		st.rate = append(st.rate, float64(len(lat))/to.at.Sub(from.at).Seconds())
		if len(lat) == 0 {
			continue
		}
		lat = sortDurations(lat)
		st.p50 = append(st.p50, ms(percentile(lat, 0.50)))
		st.p99 = append(st.p99, ms(percentile(lat, 0.99)))
		st.cpu = append(st.cpu, us(to.cpu-from.cpu)/float64(len(lat)))
	}
	return st
}

// timedSetup builds the fixture repeatedly, one build alive at a time
// and each starting from a collected heap, and keeps the last build;
// setup_s is the median build time.
func timedSetup(ctx context.Context, spec *workloadSpec, cfg *runConfig, tr *tracer) (*env, []float64, error) {
	var (
		times []float64
		spent time.Duration
		keep  *env
	)
	for len(times) < cfg.minSetups || (spent < cfg.setupBudget && len(times) < maxSetups) {
		if keep != nil {
			keep.close()
			keep = nil
		}
		runtime.GC()
		t0 := time.Now()
		e, err := spec.setup(ctx, cfg, tr)
		d := time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", spec.name, err)
		}
		keep = e
		spent += d
		times = append(times, d.Seconds())
	}
	return keep, times, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func meanDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

// runWorkload runs one workload end to end: set-up, warm-up, the timed
// (or traced) window, the correctness checks and the metrics.
func runWorkload(spec *workloadSpec, cfg *runConfig) (*result, error) {
	ctx := context.Background()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	e, setups, err := timedSetup(ctx, spec, cfg, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	gens := e.generators(spec, cfg.seed)
	e.drive(ctx, spec, gens, cfg.warmup)

	res := newResult()
	res.notes = []string{
		fmt.Sprintf("workload %s seed %d: %s", spec.name, cfg.seed, spec.load),
		"server in-process behind net/http/httptest; all traffic crosses loopback (127.0.0.1)",
	}
	var t *tally
	if cfg.trace {
		t, err = e.tracedWindow(ctx, spec, cfg, gens, res)
	} else {
		t, err = e.timedWindow(ctx, spec, cfg, gens, setups, res)
	}
	if err != nil {
		return nil, err
	}
	violations := e.check()
	if len(t.joins) == 0 {
		violations = append(violations, "no join completed with its expected verdict")
	}
	for _, err := range t.errs {
		res.notes = append(res.notes, "FAILED op: "+err.Error())
	}
	for _, v := range violations {
		res.notes = append(res.notes, "FAILED check: "+v)
	}
	res.Attempted = t.attempted()
	res.Failed = t.failed + int64(len(violations))
	res.Correct = res.Failed == 0
	res.notes = append(res.notes, fmt.Sprintf("join_fail_ratio %g (%d of %d ops failed or checks violated)",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted))
	return res, nil
}

// window is what one measured stretch of load showed.
type window struct {
	t       *tally
	allocKB float64 // heap KiB allocated per expected-verdict join
	allocs  float64 // heap objects allocated per expected-verdict join
	// load holds the timings (medians over the slices) and the RSS peak,
	// under their per-layer names: this host's run-to-run spread is too
	// wide to bound them.
	load   map[string]float64
	slice  time.Duration
	slices int
	// whole-window figures, for comparison with the slice medians
	lat []time.Duration // sorted join latencies
	cpu float64         // CPU per join
}

// measureWindow applies load for d. Rate, latency and CPU per join are
// medians over the window's slices, so a burst of outside load skews one
// slice rather than the figure.
func (e *env) measureWindow(ctx context.Context, spec *workloadSpec, gens []*opGen, d time.Duration) (*window, error) {
	before, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	slice, n := slicing(spec, d)
	marks := markCPU(time.Now(), slice, n)
	t := e.drive(ctx, spec, gens, d)
	after, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	st := perSlice(t.joins, <-marks)
	joins := float64(max(len(t.joins), 1))
	return &window{
		t:       t,
		allocKB: float64(after.totalAlloc-before.totalAlloc) / 1024 / joins,
		allocs:  float64(after.mallocs-before.mallocs) / joins,
		load: map[string]float64{
			"load.joins_per_s":     median(st.rate),
			"load.join_p50_ms":     median(st.p50),
			"load.join_p99_ms":     median(st.p99),
			"load.cpu_us_per_join": median(st.cpu),
			"runtime.rss_peak_mb":  float64(after.maxRSSKiB) / 1024,
		},
		slice:  slice,
		slices: len(st.rate),
		lat:    sortDurations(t.latencies()),
		cpu:    us(after.cpu-before.cpu) / joins,
	}, nil
}

// timedWindow measures the end-to-end metrics with tracing off, and
// prints the unbounded timings beside them.
func (e *env) timedWindow(ctx context.Context, spec *workloadSpec, cfg *runConfig, gens []*opGen, setups []float64, res *result) (*tally, error) {
	w, err := e.measureWindow(ctx, spec, gens, cfg.window)
	if err != nil {
		return nil, err
	}
	n := len(w.t.joins)
	res.set(mSetup, median(setups), len(setups))
	res.set(mAllocKB, w.allocKB, n)
	res.set(mAllocs, w.allocs, n)
	res.extra = w.load
	res.extraSamples = n
	lat := w.lat
	res.notes = append(res.notes, fmt.Sprintf("load.* are medians over %d slices of %s; whole window: p50 %.3f ms, p99 %.3f ms, %.1f us CPU per join",
		w.slices, w.slice, ms(percentile(lat, 0.5)), ms(percentile(lat, 0.99)), w.cpu))
	if n < 1000 {
		res.notes = append(res.notes, fmt.Sprintf("p99 rests on %d samples, fewer than 1000", n))
	}
	if q := tailQuantile(n); q > 0.99 {
		res.notes = append(res.notes, fmt.Sprintf("join tail: p%g %.3f ms over %d samples", q*100, ms(percentile(lat, q)), n))
	}
	return w.t, nil
}
