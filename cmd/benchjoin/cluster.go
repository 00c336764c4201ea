package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"trustvo/internal/cluster"
	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/telemetry"
	"trustvo/internal/vo"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xtnl"
)

// Cluster mode (-cluster): the sharded-TN scaling and failover
// benchmark. Because the benchmark host has a small, fixed number of
// CPUs, raw joins/sec cannot show horizontal scaling honestly; instead
// every node runs an explicit capacity model — clusterCapacity
// concurrent TN messages, each holding its slot for at least
// clusterFloor — so a node's message throughput is bounded by
// capacity/floor the way a production node is bounded by its own
// resources, and adding nodes adds real capacity. The A/B is the same
// worker pool against one node and against N nodes; the second half of
// the run kills a node mid-negotiation repeatedly and times how long a
// suspended client takes to resume against a survivor (failover
// recovery).
const (
	clusterCapacity = 2
	clusterFloor    = 25 * time.Millisecond
)

// clusterReport is the -cluster JSON schema (BENCH_cluster.json).
type clusterReport struct {
	Schema  string `json:"schema"`
	Nodes   int    `json:"nodes"`
	Workers int    `json:"workers"`
	Joins   int    `json:"joins"`
	// Capacity model parameters: per-node throughput is bounded by
	// capacity/service_floor messages per second.
	Capacity       int     `json:"capacity"`
	ServiceFloorMS float64 `json:"service_floor_ms"`

	SingleNodeJPS float64 `json:"single_node_joins_per_sec"`
	ClusterJPS    float64 `json:"cluster_joins_per_sec"`
	ScalingX      float64 `json:"scaling_x"`

	FailoverRounds     int       `json:"failover_rounds"`
	FailoverRecoveryMS latencyMS `json:"failover_recovery_ms"`

	Counters  map[string]int64  `json:"counters"`
	Telemetry *telemetry.Report `json:"telemetry"`
}

// benchNode is one live node of the benchmark cluster.
type benchNode struct {
	name   string
	node   *cluster.Node
	srv    *httptest.Server
	cancel context.CancelFunc
}

// clusterBenchEnv is an in-process N-node TN cluster.
type clusterBenchEnv struct {
	ring    *cluster.Ring
	reg     *telemetry.Registry
	keys    *pki.KeyPair
	ca      *pki.Authority
	trust   *pki.TrustStore
	baseDir string
	gen     int

	mu    sync.Mutex
	nodes map[string]*benchNode
	order []string // ring join order, for stable worker->node assignment
}

func newClusterBenchEnv(names []string) (*clusterBenchEnv, error) {
	ca, err := pki.NewAuthority("CertCA")
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "benchjoin-cluster-")
	if err != nil {
		return nil, err
	}
	e := &clusterBenchEnv{
		ring:    cluster.NewRing(0),
		reg:     telemetry.NewRegistry(),
		keys:    pki.MustGenerateKeyPair(),
		ca:      ca,
		trust:   pki.NewTrustStore(ca),
		baseDir: dir,
		nodes:   make(map[string]*benchNode),
	}
	for _, n := range names {
		if err := e.startNode(n); err != nil {
			e.close()
			return nil, err
		}
		e.ring.Add(n)
		e.order = append(e.order, n)
	}
	return e, nil
}

func (e *clusterBenchEnv) controllerParty() *negotiation.Party {
	return &negotiation.Party{
		Name:    "AircraftCo",
		Profile: xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(
			vo.MembershipResource("AircraftOptimizationVO", "DesignWebPortal") +
				" <- WebDesignerQuality(regulation='UNI EN ISO 9000')")...),
		Trust: e.trust,
		Grant: func(resource, peer string) ([]byte, error) { return []byte("ok"), nil },
	}
}

func (e *clusterBenchEnv) startNode(name string) error {
	tnsvc := wsrpc.NewTNService(e.controllerParty())
	tnsvc.Metrics = e.reg
	tnsvc.Logf = func(string, ...any) {}

	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	transport := &wsrpc.Transport{
		RequestTimeout:  2 * time.Second,
		Retry:           wsrpc.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
		BreakerCooldown: 100 * time.Millisecond,
		Metrics:         e.reg,
	}
	node, err := cluster.NewNode(cluster.Config{
		Name:         name,
		Ring:         e.ring,
		TN:           tnsvc,
		Transport:    transport,
		Metrics:      e.reg,
		Keys:         e.keys,
		Capacity:     clusterCapacity,
		ServiceFloor: clusterFloor,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		srv.Close()
		return err
	}
	e.mu.Lock() //lint:allow nakedlock short gen bump; store open below runs unlocked
	e.gen++
	dir := filepath.Join(e.baseDir, fmt.Sprintf("%s-%d", name, e.gen))
	e.mu.Unlock()
	db, err := store.OpenWithOptions(dir, store.Options{OnCommit: node.OnCommit})
	if err != nil {
		srv.Close()
		return err
	}
	node.AttachDB(db)
	node.Register(mux)
	ctx, cancel := context.WithCancel(context.Background())
	node.Start(ctx)

	bn := &benchNode{name: name, node: node, srv: srv, cancel: cancel}
	e.mu.Lock() //lint:allow nakedlock peer wiring only; no early return before Unlock
	e.nodes[name] = bn
	for _, other := range e.nodes {
		other.node.SetPeer(name, srv.URL)
		bn.node.SetPeer(other.name, other.srv.URL)
	}
	e.mu.Unlock()
	return nil
}

func (e *clusterBenchEnv) baseOf(i int) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	for off := 0; off < len(e.order); off++ {
		if bn := e.nodes[e.order[(i+off)%len(e.order)]]; bn != nil {
			return bn.srv.URL
		}
	}
	return ""
}

func (e *clusterBenchEnv) kill(name string) {
	e.ring.Remove(name)
	e.mu.Lock() //lint:allow nakedlock teardown below must run outside the lock
	bn := e.nodes[name]
	delete(e.nodes, name)
	e.mu.Unlock()
	if bn == nil {
		return
	}
	bn.cancel()
	bn.srv.CloseClientConnections()
	bn.srv.Close()
	if db := bn.node.DB(); db != nil {
		db.Close()
	}
}

func (e *clusterBenchEnv) revive(name string) error {
	if err := e.startNode(name); err != nil {
		return err
	}
	e.ring.Add(name)
	return nil
}

func (e *clusterBenchEnv) close() {
	e.mu.Lock() //lint:allow nakedlock kill below re-locks per node
	names := make([]string, 0, len(e.nodes))
	for n := range e.nodes {
		names = append(names, n)
	}
	e.mu.Unlock()
	for _, n := range names {
		e.kill(n)
	}
	os.RemoveAll(e.baseDir)
}

func (e *clusterBenchEnv) memberParty(name string) (*negotiation.Party, error) {
	prof := xtnl.NewProfile(name)
	cred, err := e.ca.Issue(pki.IssueRequest{
		Type: "WebDesignerQuality", Holder: name,
		Attributes: []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}},
	})
	if err != nil {
		return nil, err
	}
	prof.Add(cred)
	return &negotiation.Party{
		Name: name, Profile: prof,
		Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(e.ca),
	}, nil
}

// measureJoins drives `joins` negotiations over `workers` goroutines,
// each worker pinned round-robin to a node, and returns joins/sec.
func (e *clusterBenchEnv) measureJoins(workers, joins int) (float64, error) {
	resource := vo.MembershipResource("AircraftOptimizationVO", "DesignWebPortal")
	parties := make([]*negotiation.Party, workers)
	for i := range parties {
		p, err := e.memberParty(fmt.Sprintf("bench-%02d", i))
		if err != nil {
			return 0, err
		}
		parties[i] = p
	}
	// Untimed warm-up: one join per worker.
	for i, p := range parties {
		cli := &wsrpc.TNClient{BaseURL: e.baseOf(i), Party: p}
		out, err := cli.Negotiate(context.Background(), resource)
		if err != nil {
			return 0, fmt.Errorf("warm-up join: %w", err)
		}
		if !out.Succeeded {
			return 0, fmt.Errorf("warm-up join refused: %s", out.Reason)
		}
	}
	perWorker := joins / workers
	extra := joins % workers
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ok       int
		firstErr error
	)
	t0 := time.Now()
	for i, p := range parties {
		n := perWorker
		if i < extra {
			n++
		}
		wg.Add(1)
		go func(i int, p *negotiation.Party, n int) {
			defer wg.Done()
			cli := &wsrpc.TNClient{BaseURL: e.baseOf(i), Party: p}
			for j := 0; j < n; j++ {
				out, err := cli.Negotiate(context.Background(), resource)
				mu.Lock() //lint:allow nakedlock per-join tally inside a loop; defer would hold the lock across joins
				switch {
				case err != nil && firstErr == nil:
					firstErr = err
				case err == nil && !out.Succeeded && firstErr == nil:
					firstErr = fmt.Errorf("join refused: %s", out.Reason)
				case err == nil && out.Succeeded:
					ok++
				}
				mu.Unlock()
			}
		}(i, p, n)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(ok) / elapsed.Seconds(), nil
}

// measureFailover kills the node a client is mid-negotiation with and
// times kill -> successful completion on a survivor, over `rounds`.
func (e *clusterBenchEnv) measureFailover(rounds int) ([]time.Duration, error) {
	resource := vo.MembershipResource("AircraftOptimizationVO", "DesignWebPortal")
	samples := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		victim := e.order[r%len(e.order)]
		e.mu.Lock() //lint:allow nakedlock short liveness probe; kill/resume below run unlocked
		bn := e.nodes[victim]
		e.mu.Unlock()
		if bn == nil {
			return nil, fmt.Errorf("failover round %d: victim %s not live", r, victim)
		}
		party, err := e.memberParty(fmt.Sprintf("failover-%02d", r))
		if err != nil {
			return nil, err
		}
		cli := &wsrpc.TNClient{
			BaseURL: bn.srv.URL,
			Party:   party,
			Transport: &wsrpc.Transport{
				RequestTimeout:  2 * time.Second,
				Retry:           wsrpc.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
				BreakerCooldown: 50 * time.Millisecond,
				Metrics:         e.reg,
			},
			ResumeTTL: time.Minute,
		}
		// With a >= clusterFloor hold per message the join cannot finish
		// before the kill lands a third of the way in.
		killAt := make(chan time.Time, 1)
		go func() {
			time.Sleep(clusterFloor + clusterFloor/2)
			t := time.Now()
			e.kill(victim)
			killAt <- t
		}()
		out, err := cli.Negotiate(context.Background(), resource)
		killed := <-killAt
		for resumes := 0; err != nil; resumes++ {
			var se *wsrpc.SuspendedError
			if !errors.As(err, &se) {
				return nil, fmt.Errorf("failover round %d: non-resumable: %w", r, err)
			}
			if resumes > 200 {
				return nil, fmt.Errorf("failover round %d: no convergence: %w", r, err)
			}
			time.Sleep(5 * time.Millisecond)
			cli.BaseURL = e.baseOf(r + 1) // a survivor
			out, err = cli.Resume(context.Background(), se.Ticket)
		}
		if !out.Succeeded {
			return nil, fmt.Errorf("failover round %d: refused: %s", r, out.Reason)
		}
		samples = append(samples, time.Since(killed))
		if err := e.revive(victim); err != nil {
			return nil, fmt.Errorf("failover round %d: revive: %w", r, err)
		}
	}
	return samples, nil
}

// runClusterBench runs the scaling A/B and the failover recovery
// measurement, writes BENCH_cluster.json, and enforces the scaling
// floor.
func runClusterBench(w *os.File, nodes, workers, joins, rounds int, outPath string) error {
	if nodes < 2 {
		nodes = 3
	}
	if workers < 1 {
		workers = 2 * nodes
	}
	if joins < workers {
		joins = workers * 8
	}
	if rounds < 1 {
		rounds = 6
	}
	fmt.Fprintf(w, "cluster — capacity model %d slots / %v floor per node\n", clusterCapacity, clusterFloor)

	single, err := newClusterBenchEnv([]string{"b1"})
	if err != nil {
		return err
	}
	singleJPS, err := single.measureJoins(workers, joins)
	single.close()
	if err != nil {
		return fmt.Errorf("single-node run: %w", err)
	}
	fmt.Fprintf(w, "  1 node:  %.1f joins/sec (%d joins, %d workers)\n", singleJPS, joins, workers)

	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("b%d", i+1)
	}
	clu, err := newClusterBenchEnv(names)
	if err != nil {
		return err
	}
	defer clu.close()
	clusterJPS, err := clu.measureJoins(workers, joins)
	if err != nil {
		return fmt.Errorf("%d-node run: %w", nodes, err)
	}
	scaling := clusterJPS / singleJPS
	fmt.Fprintf(w, "  %d nodes: %.1f joins/sec — %.2fx\n", nodes, clusterJPS, scaling)

	samples, err := clu.measureFailover(rounds)
	if err != nil {
		return err
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	recovery := latencyMS{
		P50: durMS(percentile(samples, 0.50)),
		P95: durMS(percentile(samples, 0.95)),
		P99: durMS(percentile(samples, 0.99)),
	}
	fmt.Fprintf(w, "  failover: kill -> resumed join done, %d rounds: p50 %.1f ms  p95 %.1f ms\n",
		rounds, recovery.P50, recovery.P95)

	rep := clusterReport{
		Schema:             "trustvo.benchjoin.cluster/v2",
		Nodes:              nodes,
		Workers:            workers,
		Joins:              joins,
		Capacity:           clusterCapacity,
		ServiceFloorMS:     durMS(clusterFloor),
		SingleNodeJPS:      singleJPS,
		ClusterJPS:         clusterJPS,
		ScalingX:           scaling,
		FailoverRounds:     rounds,
		FailoverRecoveryMS: recovery,
		Counters: map[string]int64{
			"cluster_forwards_total": clu.reg.Counter("cluster_forwards_total", "route", "/tn/policyExchange").Value() +
				clu.reg.Counter("cluster_forwards_total", "route", "/tn/credentialExchange").Value(),
			"cluster_adoptions_standby": clu.reg.Counter("cluster_adoptions_total", "source", "standby").Value(),
			"cluster_standby_ships_ok":  clu.reg.Counter("cluster_standby_ships_total", "result", "ok").Value(),
			"tn_sessions_adopted_total": clu.reg.Counter("tn_sessions_adopted_total").Value(),
		},
		Telemetry: clu.reg.Report(),
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
	// The capacity model makes scaling near-linear by construction;
	// falling under the floor means routing or replication overhead is
	// eating a node's capacity.
	const minScaling = 2.2
	if nodes >= 3 && scaling < minScaling {
		return fmt.Errorf("cluster scaling %.2fx under the %.1fx floor at %d nodes", scaling, minScaling, nodes)
	}
	return nil
}
