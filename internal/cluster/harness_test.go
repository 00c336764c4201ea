package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"trustvo/internal/faultinject"
	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/telemetry"
	"trustvo/internal/vo"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xtnl"
)

// bg is the context for test client calls.
var bg = context.Background()

// chaosResource is the membership resource every harness join targets.
var chaosResource = vo.MembershipResource("AircraftOptimizationVO", "DesignWebPortal")

// testCluster is the in-process multi-node fixture: N tnserve-shaped
// nodes on httptest servers, one shared ring, one shared fault-injection
// network board, one shared telemetry registry (so per-node counters
// aggregate), and a deterministic controller for kills, revivals,
// partitions and promotions.
type testCluster struct {
	t        testing.TB
	ring     *Ring
	net      *faultinject.Net
	keys     *pki.KeyPair
	ca       *pki.Authority
	trust    *pki.TrustStore
	reg      *telemetry.Registry
	baseDir  string
	sync     bool
	replLog  int
	floor    time.Duration // per-message service floor (chaos widens kill windows)
	redirect bool          // 307-redirect misrouted requests instead of forwarding

	mu     sync.Mutex
	nodes  map[string]*testNode
	leader string
	gen    int // store-dir generation per revival, for fresh-disk revivals
}

// testNode is one live node of the fixture.
type testNode struct {
	name   string
	node   *Node
	tn     *wsrpc.TNService
	db     *store.Store
	srv    *httptest.Server
	cancel context.CancelFunc
	dir    string
}

func newTestCluster(t testing.TB, syncRepl bool, replLog int) *testCluster {
	t.Helper()
	ca, err := pki.NewAuthority("CertCA")
	if err != nil {
		t.Fatal(err)
	}
	return &testCluster{
		t:       t,
		ring:    NewRing(0),
		net:     faultinject.NewNet(),
		keys:    clusterKeys,
		ca:      ca,
		trust:   pki.NewTrustStore(ca),
		reg:     telemetry.NewRegistry(),
		baseDir: t.TempDir(),
		sync:    syncRepl,
		replLog: replLog,
		nodes:   make(map[string]*testNode),
	}
}

// controllerParty builds one node's controller identity. Each node gets
// its own Party value (they are mutated with a metrics clone per
// session) sharing the CA trust store.
func (c *testCluster) controllerParty() *negotiation.Party {
	return &negotiation.Party{
		Name:    "AircraftCo",
		Profile: xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(
			chaosResource + " <- WebDesignerQuality(regulation='UNI EN ISO 9000')")...),
		Trust: c.trust,
		Grant: func(resource, peer string) ([]byte, error) { return []byte("granted"), nil },
	}
}

// memberParty issues a credentialed requester identity.
func (c *testCluster) memberParty(name string) *negotiation.Party {
	c.t.Helper()
	prof := xtnl.NewProfile(name)
	cred, err := c.ca.Issue(pki.IssueRequest{
		Type: "WebDesignerQuality", Holder: name,
		Attributes: []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}},
	})
	if err != nil {
		c.t.Fatal(err)
	}
	prof.Add(cred)
	return &negotiation.Party{
		Name: name, Profile: prof,
		Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(c.ca),
	}
}

// clientRetry is the aggressive retry budget for chaos loopback tests.
func clientRetry() wsrpc.RetryPolicy {
	return wsrpc.RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}
}

// startNode boots (or reboots) a node: TN service, durable store wired
// into the replication hook, routed HTTP server, fault-net-aware
// transport. The caller adds it to the ring.
func (c *testCluster) startNode(name, dir string) *testNode {
	c.t.Helper()
	tnsvc := wsrpc.NewTNService(c.controllerParty())
	tnsvc.Metrics = c.reg
	tnsvc.Logf = func(string, ...any) {}

	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	endpoint := srv.Listener.Addr().String()

	ft := faultinject.New(faultinject.Config{}, nil)
	ft.Net = c.net
	ft.LocalEndpoint = endpoint
	ft.Metrics = c.reg
	transport := &wsrpc.Transport{
		HTTP:            &http.Client{Transport: ft},
		RequestTimeout:  2 * time.Second,
		Retry:           clientRetry(),
		BreakerCooldown: 100 * time.Millisecond, // chaos windows are short; reprobe fast
		Metrics:         c.reg,
	}

	node, err := NewNode(Config{
		Name:         name,
		Ring:         c.ring,
		TN:           tnsvc,
		Transport:    transport,
		Metrics:      c.reg,
		Keys:         c.keys,
		SyncRepl:     c.sync,
		MaxReplLog:   c.replLog,
		Capacity:     8,
		ServiceFloor: c.floor,
		Redirect:     c.redirect,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		srv.Close()
		c.t.Fatal(err)
	}
	db, err := store.OpenWithOptions(dir, store.Options{OnCommit: node.OnCommit})
	if err != nil {
		srv.Close()
		c.t.Fatal(err)
	}
	node.AttachDB(db)
	node.Register(mux)

	ctx, cancel := context.WithCancel(bg)
	node.Start(ctx)

	tn := &testNode{name: name, node: node, tn: tnsvc, db: db, srv: srv, cancel: cancel, dir: dir}
	c.mu.Lock()
	c.nodes[name] = tn
	peers := make(map[string]string, len(c.nodes))
	for n2, other := range c.nodes {
		peers[n2] = other.srv.URL
	}
	c.mu.Unlock()
	// Full-mesh peer exchange: everyone learns the newcomer, the
	// newcomer learns everyone.
	c.mu.Lock()
	for _, other := range c.nodes {
		other.node.SetPeer(name, srv.URL)
		tn.node.SetPeer(other.name, peers[other.name])
	}
	c.mu.Unlock()
	return tn
}

// addNode starts a node and joins it to the ring.
func (c *testCluster) addNode(name string) *testNode {
	tn := c.startNode(name, filepath.Join(c.baseDir, name+"-0"))
	c.ring.Add(name)
	return tn
}

// get returns a live node (nil if dead).
func (c *testCluster) get(name string) *testNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[name]
}

// kill simulates an abrupt node death: off the ring, HTTP refused,
// store closed, background loops cancelled. State on disk survives for
// a same-disk revival.
func (c *testCluster) kill(name string) {
	c.t.Helper()
	c.ring.Remove(name)
	c.mu.Lock()
	tn := c.nodes[name]
	delete(c.nodes, name)
	c.mu.Unlock()
	if tn == nil {
		return
	}
	tn.cancel()
	tn.srv.CloseClientConnections()
	tn.srv.Close()
	tn.db.Close()
}

// revive reboots a previously killed node, optionally on a fresh disk
// (forcing a snapshot catch-up), and runs the membership pass on the
// survivors.
func (c *testCluster) revive(name string, freshDisk bool) *testNode {
	c.t.Helper()
	c.mu.Lock()
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	dir := filepath.Join(c.baseDir, fmt.Sprintf("%s-0", name))
	if freshDisk {
		dir = filepath.Join(c.baseDir, fmt.Sprintf("%s-%d", name, gen))
	}
	tn := c.startNode(name, dir)
	c.ring.Add(name)
	// Survivors re-ship their standbys: the revived node may be a
	// session's successor again, and its standby table died with it.
	for _, other := range c.liveNodes() {
		if other.name == name {
			continue
		}
		other.node.Reship(bg)
	}
	return tn
}

// liveNodes snapshots the live node set.
func (c *testCluster) liveNodes() []*testNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*testNode, 0, len(c.nodes))
	for _, tn := range c.nodes {
		out = append(out, tn)
	}
	return out
}

// liveBase returns some live node's base URL for client traffic.
func (c *testCluster) liveBase() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tn := range c.nodes {
		return tn.srv.URL
	}
	return ""
}

// setLeader promotes name and records it.
func (c *testCluster) setLeader(name string) {
	tn := c.get(name)
	if tn == nil {
		c.t.Fatalf("cannot promote dead node %s", name)
	}
	tn.node.Promote()
	c.mu.Lock()
	c.leader = name
	c.mu.Unlock()
}

// leaderNode returns the current leader (nil while dead/unset).
func (c *testCluster) leaderNode() *testNode {
	c.mu.Lock()
	name := c.leader
	tn := c.nodes[name]
	c.mu.Unlock()
	return tn
}

// failover promotes the most advanced survivor — highest lineage, then
// highest applied position, the promotion rule that keeps every acked
// write — and returns its name.
func (c *testCluster) failover() string {
	c.t.Helper()
	var best *testNode
	var bestLin, bestPos uint64
	for _, tn := range c.liveNodes() {
		lin, pos := tn.node.Lineage(), tn.node.Applied()
		if best == nil || lin > bestLin || lin == bestLin && pos > bestPos {
			best, bestLin, bestPos = tn, lin, pos
		}
	}
	if best == nil {
		c.t.Fatal("failover with no survivors")
	}
	c.setLeader(best.name)
	return best.name
}

// shutdown closes every live node.
func (c *testCluster) shutdown() {
	for _, tn := range c.liveNodes() {
		c.kill(tn.name)
	}
}
