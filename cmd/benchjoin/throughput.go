package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/telemetry"
	"trustvo/internal/vo"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xtnl"
)

// Concurrent-join throughput mode (-concurrency): N workers, each with
// its own member identity and credentials, drive repeated standalone
// negotiations against ONE TN service — the load pattern of many parties
// joining a VO at once, which Fig. 9 times one join at a time. The run
// measures aggregate joins/sec plus per-join latency percentiles, and
// the -baseline flag re-runs the identical load with the verification
// cache disabled.

// throughputReport is the -concurrency JSON schema (BENCH_throughput.json).
type throughputReport struct {
	Schema      string  `json:"schema"`
	Concurrency int     `json:"concurrency"`
	Joins       int     `json:"joins"`
	Failed      int     `json:"failed"`
	Baseline    bool    `json:"baseline"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	JoinsPerSec float64 `json:"joins_per_sec"`
	// JoinLatencyMS are whole-join client-side percentiles; the per-phase
	// breakdown (tn_phase_seconds{phase,role}) is under Telemetry.
	JoinLatencyMS latencyMS      `json:"join_latency_ms"`
	VerifyCache   pki.CacheStats `json:"verify_cache"`
	// SessionCounters reconciles the service's lifecycle accounting:
	// created == completed + expired + evicted must hold, and active
	// must be 0 once every worker has drained.
	SessionCounters map[string]int64  `json:"session_counters"`
	Telemetry       *telemetry.Report `json:"telemetry"`
}

type latencyMS struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// throughputEnv is the one-service-many-members fixture.
type throughputEnv struct {
	srv     *httptest.Server
	svc     *wsrpc.TNService
	trust   *pki.TrustStore
	reg     *telemetry.Registry
	members []*negotiation.Party
}

func newThroughputEnv(workers int, baseline bool) (*throughputEnv, error) {
	ca, err := pki.NewAuthority("CertCA")
	if err != nil {
		return nil, err
	}
	trust := pki.NewTrustStore(ca)
	trust.DisableCache = baseline
	ctl := &negotiation.Party{
		Name:    "AircraftCo",
		Profile: xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(
			vo.MembershipResource("AircraftOptimizationVO", "DesignWebPortal") +
				" <- WebDesignerQuality(regulation='UNI EN ISO 9000'), AAAMember")...),
		Trust: trust,
		Grant: func(resource, peer string) ([]byte, error) { return []byte("ok"), nil },
	}
	reg := telemetry.NewRegistry()
	svc := wsrpc.NewTNService(ctl)
	svc.Metrics = reg
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)

	members := make([]*negotiation.Party, workers)
	for i := range members {
		holder := fmt.Sprintf("worker-%02d", i)
		prof := xtnl.NewProfile(holder)
		wdq, err := ca.Issue(pki.IssueRequest{
			Type: "WebDesignerQuality", Holder: holder,
			Attributes: []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}},
		})
		if err != nil {
			srv.Close()
			return nil, err
		}
		aaa, err := ca.Issue(pki.IssueRequest{Type: "AAAMember", Holder: holder})
		if err != nil {
			srv.Close()
			return nil, err
		}
		prof.Add(wdq, aaa)
		members[i] = &negotiation.Party{
			Name: holder, Profile: prof,
			Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(ca),
		}
	}
	return &throughputEnv{srv: srv, svc: svc, trust: trust, reg: reg, members: members}, nil
}

// runThroughput drives `joins` negotiations over `workers` goroutines
// and writes the throughput report to outPath.
func runThroughput(w *os.File, workers, joins int, baseline bool, outPath string) error {
	if workers < 1 {
		workers = 1
	}
	if joins < workers {
		joins = workers
	}
	e, err := newThroughputEnv(workers, baseline)
	if err != nil {
		return err
	}
	defer e.srv.Close()
	resource := vo.MembershipResource("AircraftOptimizationVO", "DesignWebPortal")

	// Untimed warm-up: one join per worker, so the timed window measures
	// the steady state rather than TLS-less HTTP connection setup and
	// first-parse costs.
	for _, m := range e.members {
		cli := &wsrpc.TNClient{BaseURL: e.srv.URL, Party: m}
		out, err := cli.Negotiate(context.Background(), resource)
		if err != nil {
			return fmt.Errorf("warm-up join as %s: %w", m.Name, err)
		}
		if !out.Succeeded {
			return fmt.Errorf("warm-up join as %s refused: %s", m.Name, out.Reason)
		}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		samples  []time.Duration
		failures []error
	)
	perWorker := joins / workers
	extra := joins % workers
	t0 := time.Now()
	for i, m := range e.members {
		n := perWorker
		if i < extra {
			n++
		}
		wg.Add(1)
		go func(m *negotiation.Party, n int) {
			defer wg.Done()
			cli := &wsrpc.TNClient{BaseURL: e.srv.URL, Party: m}
			local := make([]time.Duration, 0, n)
			var localErrs []error
			for j := 0; j < n; j++ {
				js := time.Now()
				out, err := cli.Negotiate(context.Background(), resource)
				switch {
				case err != nil:
					localErrs = append(localErrs, fmt.Errorf("%s join %d: %w", m.Name, j, err))
				case !out.Succeeded:
					localErrs = append(localErrs, fmt.Errorf("%s join %d: refused: %s", m.Name, j, out.Reason))
				default:
					local = append(local, time.Since(js))
				}
			}
			mu.Lock()
			defer mu.Unlock()
			samples = append(samples, local...)
			failures = append(failures, localErrs...)
		}(m, n)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	stats := e.trust.CacheStats()
	rep := throughputReport{
		Schema:      "trustvo.benchjoin.throughput/v2",
		Concurrency: workers,
		Joins:       joins,
		Failed:      len(failures),
		Baseline:    baseline,
		ElapsedMS:   durMS(elapsed),
		JoinsPerSec: float64(len(samples)) / elapsed.Seconds(),
		JoinLatencyMS: latencyMS{
			P50: durMS(percentile(samples, 0.50)),
			P95: durMS(percentile(samples, 0.95)),
			P99: durMS(percentile(samples, 0.99)),
		},
		VerifyCache: stats,
		SessionCounters: map[string]int64{
			"created":   e.reg.Counter("tn_sessions_created_total").Value(),
			"completed": sumCompleted(e.reg),
			"expired":   e.reg.Counter("tn_sessions_swept_total", "reason", "expired").Value(),
			"evicted":   e.reg.Counter("tn_sessions_swept_total", "reason", "evicted").Value(),
			"active":    e.reg.Gauge("tn_sessions_active").Value(),
		},
		Telemetry: e.reg.Report(),
	}

	mode := "cached"
	if baseline {
		mode = "baseline (no verify cache)"
	}
	fmt.Fprintf(w, "throughput — %d workers, %d joins, %s\n", workers, joins, mode)
	fmt.Fprintf(w, "  joins/sec:   %.1f (%d joins in %v, %d failed)\n",
		rep.JoinsPerSec, len(samples), elapsed.Round(time.Millisecond), len(failures))
	fmt.Fprintf(w, "  latency:     p50 %.3f ms   p95 %.3f ms   p99 %.3f ms\n",
		rep.JoinLatencyMS.P50, rep.JoinLatencyMS.P95, rep.JoinLatencyMS.P99)
	fmt.Fprintf(w, "  verify cache: %d hits / %d misses (%d entries)\n",
		stats.Hits, stats.Misses, stats.Entries)
	for _, err := range failures {
		fmt.Fprintf(w, "  FAILED: %v\n", err)
	}

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "  report written to %s\n", outPath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d of %d joins failed", len(failures), joins)
	}
	return nil
}

func sumCompleted(reg *telemetry.Registry) int64 {
	return reg.Counter("tn_sessions_completed_total", "result", "success").Value() +
		reg.Counter("tn_sessions_completed_total", "result", "failure").Value()
}

// percentile returns the q-quantile of sorted samples (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
