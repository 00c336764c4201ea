package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"trustvo/internal/cluster"
	"trustvo/internal/core"
	"trustvo/internal/negotiation"
	"trustvo/internal/partydb"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/store/cacher"
	"trustvo/internal/telemetry"
	"trustvo/internal/vo"
	"trustvo/internal/vo/registry"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// Every workload negotiates admission to the paper's Aircraft
// Optimization VO (§5.1): a member proves WebDesignerQuality under
// UNI EN ISO 9000 plus AAAMember to the controller AircraftCo.
const (
	voName     = "AircraftOptimizationVO"
	roleName   = "DesignWebPortal"
	controller = "AircraftCo"
	caName     = "CertCA"
	rogueCA    = "RogueCA"
	regulation = "UNI EN ISO 9000"

	admissionRule = " <- WebDesignerQuality(regulation='" + regulation + "'), AAAMember"
)

var membership = vo.MembershipResource(voName, roleName)

// Load and fixture shape. workers is the load-goroutine count of every
// closed loop; the clients' connection pool is capped at the same number
// so each worker keeps one warm loopback connection per server.
const (
	workers       = 2
	fig9Rate      = 200 // fig9-solo open-loop joins per second, one in flight
	fig9Members   = 4
	repeatMembers = 2    // join-hot, join-churn, join-cluster: the verify cache always hits
	coldMembers   = 8192 // join-cold: 16384 credentials, 4x pki's 4096-entry verify cache
	rogueEvery    = 16   // join-cold: 1 member in 16 holds a rogue-CA credential
	churnSlots    = 32   // join-churn: controller policies (slot 0 is admission) and credentials
	churnWriteP   = 0.1  // join-churn: share of ops that overwrite a policy
	// churnValues is how many regulation values a churn write draws from.
	// Each value is a distinct XPath condition, and xtnl memoizes at most
	// 4096 of them process-wide, never evicting: with unbounded values the
	// memo fills after some 4000 writes, and from then on every reload
	// recompiles. The run would then measure two regimes, split at a point
	// set by the host's speed.
	churnValues  = 64
	clusterNodes = 3
	// doneRetention is the one non-default service setting: with the
	// library's 30 s, finished sessions pile up for longer than a run and
	// throughput decays as the session table grows.
	doneRetention = time.Second
)

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	name  string
	load  string // loop type and load, as BENCHMARK.json and README.md state them
	why   string
	open  bool // open loop (fig9-solo); every other workload is a closed loop of `workers`
	setup func(ctx context.Context, cfg *runConfig, tr *tracer) (*env, error)
}

var workloads = []*workloadSpec{
	{
		name:  "fig9-solo",
		load:  "open loop, 200 joins/s, 1 in flight: MemberClient.Join (apply + TN + admission + X.509 mint), untimed VO.Remove after each",
		why:   "the paper's Fig. 9 quantity: unloaded join latency, set by transport round trips and core admission",
		open:  true,
		setup: setupFig9,
	},
	{
		name:  "join-hot",
		load:  "closed loop, 2 workers, 2 repeat members, standalone TNClient.Negotiate against one TNService without a DB",
		why:   "EXT-11 capacity at steady state; the verify cache always hits, so transport, session table, codec and engine dominate",
		setup: setupHot,
	},
	{
		name:  "join-cold",
		load:  "closed loop, 2 workers, 8192 members drawn uniformly (16384 credentials), 1 in 16 holding a rogue-CA credential that must be refused",
		why:   "working set 4x the verify cache: Ed25519 verification and the verify-failure path dominate",
		setup: setupCold,
	},
	{
		name:  "join-churn",
		load:  "closed loop, 2 workers, 2 members; 1 op in 10 sets one of 31 controller policies to one of 64 regulation values, in a group-commit fswal store read through cacher",
		why:   "writes beside reads: every write forces a party reload, so store commit, cacher, partydb and XML decode sit on the join path",
		setup: setupChurn,
	},
	{
		name:  "join-cluster",
		load:  "closed loop, 2 workers, 2 members, 3-node in-process cluster without capacity model, each join starting at a seeded node",
		why:   "every handled message ships a signed standby to the ring successor before replying: cluster work on the blocking path",
		setup: setupCluster,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// op is one generated operation: a join by a member (at a node), or a
// policy overwrite.
type op struct {
	write  bool
	member int
	node   int
	slot   int    // join-churn write: the policy slot overwritten
	value  string // join-churn write: the slot's new regulation value
}

// opGen draws one worker's operation stream. The stream is a pure
// function of (seed, worker), so a seed fixes every member pick, node
// pick and write.
type opGen struct {
	rng     *rand.Rand
	members int
	nodes   int
	writeP  float64
	slots   []int
}

func newOpGen(seed int64, worker, members, nodes int, writeP float64, slots []int) *opGen {
	return &opGen{
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(worker)*7_919 + 1)),
		members: members,
		nodes:   nodes,
		writeP:  writeP,
		slots:   slots,
	}
}

func (g *opGen) next() op {
	if g.writeP > 0 && g.rng.Float64() < g.writeP {
		return op{
			write: true,
			slot:  g.slots[g.rng.Intn(len(g.slots))],
			value: churnValue(g.rng),
		}
	}
	o := op{member: g.rng.Intn(g.members)}
	if g.nodes > 1 {
		o.node = g.rng.Intn(g.nodes)
	}
	return o
}

// workerSlots is the share of policy slots 1..churnSlots-1 a worker
// writes: slots are partitioned across workers so each slot has a single
// writer and "last acknowledged value" is well defined.
func workerSlots(worker int) []int {
	var out []int
	for s := 1; s < churnSlots; s++ {
		if s%workers == worker {
			out = append(out, s)
		}
	}
	return out
}

// env is one built fixture: servers, parties and the client transport.
type env struct {
	reg     *telemetry.Registry // shared by every service of the fixture
	ca      *pki.Authority
	trust   *pki.TrustStore    // the controller's trust store
	ctl     *negotiation.Party // controller identity, for the layer probes
	members []*negotiation.Party
	rogue   []bool
	bases   []string // TN base URL per node
	wsT     *wsrpc.Transport
	tr      *tracer
	closers []func()

	// fig9-solo
	tk  *wsrpc.ToolkitService
	mcs []*wsrpc.MemberClient
	// join-churn
	db    *store.Store
	cache *cacher.Cache
	polMu sync.Mutex
	acked map[int]string // policy slot -> XML of its last acknowledged write
	// join-cluster
	nodes int
}

// build allocates an env with its client transport and runs fill; a
// failed fill releases whatever it had started.
func build(tr *tracer, fill func(e *env) error) (*env, error) {
	ca, err := pki.NewAuthority(caName)
	if err != nil {
		return nil, err
	}
	ht := &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		IdleConnTimeout:     90 * time.Second,
	}
	e := &env{reg: telemetry.NewRegistry(), ca: ca, tr: tr}
	e.closers = append(e.closers, ht.CloseIdleConnections)
	e.wsT = &wsrpc.Transport{HTTP: &http.Client{Transport: tr.roundTripper(ht)}}
	if err := fill(e); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close releases the fixture in reverse order of construction.
func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// serve starts an in-process loopback server for h.
func (e *env) serve(h http.Handler) *httptest.Server {
	srv := httptest.NewServer(e.tr.handler(h))
	e.closers = append(e.closers, srv.Close)
	return srv
}

// newTN builds a TN service on library defaults except DoneRetention.
func (e *env) newTN(party *negotiation.Party) *wsrpc.TNService {
	svc := wsrpc.NewTNService(party)
	svc.Metrics = e.reg
	svc.DoneRetention = doneRetention
	return svc
}

func grantOK(resource, peer string) ([]byte, error) { return []byte("ok"), nil }

// controllerParty is the standalone TN controller: the admission policy
// and a plain receipt as grant.
func controllerParty(trust *pki.TrustStore) *negotiation.Party {
	return &negotiation.Party{
		Name:     controller,
		Profile:  xtnl.NewProfile(controller),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(membership + admissionRule)...),
		Trust:    trust,
		Grant:    grantOK,
	}
}

// issueMember mints a member's two admission credentials; aaa signs the
// AAAMember one (the rogue CA for join-cold's adversarial members).
func issueMember(ca, aaa *pki.Authority, name string, trust *pki.TrustStore) (*negotiation.Party, error) {
	wdq, err := ca.Issue(pki.IssueRequest{
		Type: "WebDesignerQuality", Holder: name,
		Attributes: []xtnl.Attribute{{Name: "regulation", Value: regulation}},
	})
	if err != nil {
		return nil, fmt.Errorf("issue WebDesignerQuality to %s: %w", name, err)
	}
	member, err := aaa.Issue(pki.IssueRequest{Type: "AAAMember", Holder: name})
	if err != nil {
		return nil, fmt.Errorf("issue AAAMember to %s: %w", name, err)
	}
	prof := xtnl.NewProfile(name)
	prof.Add(wdq, member)
	return &negotiation.Party{Name: name, Profile: prof, Policies: xtnl.MustPolicySet(), Trust: trust}, nil
}

// rogueSet marks the seeded 1 in rogueEvery of n members that are
// adversarial.
func rogueSet(seed int64, n int) []bool {
	rogue := make([]bool, n)
	for _, i := range rand.New(rand.NewSource(seed)).Perm(n)[:n/rogueEvery] {
		rogue[i] = true
	}
	return rogue
}

// addMembers issues n members. With rogue set, the rogueSet members hold
// an AAAMember credential from a CA the controller does not trust, and
// must be refused.
func (e *env) addMembers(cfg *runConfig, n int, rogue bool) error {
	memberTrust := pki.NewTrustStore(e.ca)
	e.members = make([]*negotiation.Party, n)
	e.rogue = make([]bool, n)
	var bad *pki.Authority
	if rogue {
		var err error
		if bad, err = pki.NewAuthority(rogueCA); err != nil {
			return err
		}
		e.rogue = rogueSet(cfg.seed, n)
		if cfg.trustRogue {
			e.trust.AddRoot(bad.Name, bad.Keys.Public)
		}
	}
	for i := range e.members {
		aaa := e.ca
		if e.rogue[i] {
			aaa = bad
		}
		p, err := issueMember(e.ca, aaa, fmt.Sprintf("member-%05d", i), memberTrust)
		if err != nil {
			return err
		}
		e.members[i] = p
	}
	return nil
}

// setupStandalone is the EXT-11 fixture: one TN service, n members.
func setupStandalone(cfg *runConfig, tr *tracer, n int, rogue bool) (*env, error) {
	return build(tr, func(e *env) error {
		e.trust = pki.NewTrustStore(e.ca)
		e.ctl = controllerParty(e.trust)
		mux := http.NewServeMux()
		e.newTN(e.ctl).Register(mux)
		e.bases = []string{e.serve(mux).URL}
		return e.addMembers(cfg, n, rogue)
	})
}

func setupHot(_ context.Context, cfg *runConfig, tr *tracer) (*env, error) {
	return setupStandalone(cfg, tr, repeatMembers, false)
}

func setupCold(_ context.Context, cfg *runConfig, tr *tracer) (*env, error) {
	return setupStandalone(cfg, tr, cfg.coldMembers, true)
}

// setupFig9 hosts the initiator's toolkit (the VO Management tool with
// its integrated TN service) and publishes the members.
func setupFig9(ctx context.Context, cfg *runConfig, tr *tracer) (*env, error) {
	return build(tr, func(e *env) error {
		e.trust = pki.NewTrustStore(e.ca)
		party := &negotiation.Party{
			Name:     controller,
			Profile:  xtnl.NewProfile(controller),
			Policies: xtnl.MustPolicySet(),
			Trust:    e.trust,
		}
		contract := &vo.Contract{
			VOName:    voName,
			Goal:      "wing optimization",
			Initiator: controller,
			Roles: []vo.RoleSpec{{
				Name: roleName, Capabilities: []string{"design-db"}, MinMembers: 1,
				AdmissionPolicies: xtnl.MustParsePolicies("M" + admissionRule),
			}},
		}
		ini, err := core.NewInitiator(contract, party, registry.New())
		if err != nil {
			return err
		}
		if err := ini.VO.StartFormation(); err != nil {
			return err
		}
		// The probes negotiate as the initiator without admitting anyone.
		probe := *party
		probe.Grant = grantOK
		e.ctl = &probe

		e.tk = wsrpc.NewToolkitService(ini)
		e.tk.TN.Metrics = e.reg
		e.tk.TN.DoneRetention = doneRetention
		mux := http.NewServeMux()
		e.tk.Register(mux)
		base := e.serve(mux).URL
		e.bases = []string{base}
		if err := e.addMembers(cfg, fig9Members, false); err != nil {
			return err
		}
		for _, p := range e.members {
			mc := &wsrpc.MemberClient{BaseURL: base, Party: p, Transport: e.wsT}
			if err := mc.Publish(ctx, &registry.Description{
				Provider: p.Name, Service: "DesignPortal", Capabilities: []string{"design-db"},
			}); err != nil {
				return fmt.Errorf("publish %s: %w", p.Name, err)
			}
			e.mcs = append(e.mcs, mc)
		}
		return nil
	})
}

// policyDOM is churn slot s's policy document: it protects controller
// credential s behind a WebDesignerQuality whose regulation is value.
func policyDOM(slot int, value string) (*xmldom.Node, error) {
	pols, err := xtnl.ParsePolicies(fmt.Sprintf("CtlCredential%02d <- WebDesignerQuality(regulation='%s')", slot, value))
	if err != nil {
		return nil, fmt.Errorf("policy slot %d: %w", slot, err)
	}
	pols[0].ID = fmt.Sprintf("pol-%02d", slot)
	return pols[0].DOM(), nil
}

func policyKey(slot int) string { return fmt.Sprintf("%s/pol-%02d", controller, slot) }

// churnValue draws one of the churnValues regulation values.
func churnValue(rng *rand.Rand) string { return fmt.Sprintf("ISO %d", 9001+rng.Intn(churnValues)) }

// setupChurn seeds the controller's 32 credentials and 32 policies into
// a group-commit fswal store; the TN service reloads its party from the
// store through a cacher.
func setupChurn(_ context.Context, cfg *runConfig, tr *tracer) (*env, error) {
	return build(tr, func(e *env) error {
		dir, err := os.MkdirTemp("", "benchsuite-churn-")
		if err != nil {
			return err
		}
		e.closers = append(e.closers, func() { os.RemoveAll(dir) })
		db, err := store.OpenWithOptions(filepath.Join(dir, "party.wal"), store.Options{Durability: store.DurabilityGroup})
		if err != nil {
			return err
		}
		e.closers = append(e.closers, func() { db.Close() })
		db.Instrument(e.reg)
		e.db = db

		prof := xtnl.NewProfile(controller)
		for i := 0; i < churnSlots; i++ {
			c, err := e.ca.Issue(pki.IssueRequest{
				Type: fmt.Sprintf("CtlCredential%02d", i), Holder: controller,
				Attributes: []xtnl.Attribute{{Name: "grade", Value: fmt.Sprint(i)}},
			})
			if err != nil {
				return err
			}
			prof.Add(c)
		}
		if err := partydb.SaveProfile(db, prof); err != nil {
			return err
		}
		admission := xtnl.MustParsePolicies(membership + admissionRule)[0]
		admission.ID = "pol-00"
		if err := db.Put(partydb.KindPolicy, policyKey(0), admission.DOM()); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		e.acked = make(map[int]string)
		for s := 1; s < churnSlots; s++ {
			doc, err := policyDOM(s, churnValue(rng))
			if err != nil {
				return err
			}
			if err := db.Put(partydb.KindPolicy, policyKey(s), doc); err != nil {
				return err
			}
			e.acked[s] = doc.XML()
		}

		e.trust = pki.NewTrustStore(e.ca)
		e.ctl = &negotiation.Party{Name: controller, Trust: e.trust, Grant: grantOK}
		e.cache = cacher.New(db, cacher.DefaultTTL)
		svc := e.newTN(e.ctl)
		svc.DB = db
		svc.PartyReader = e.tr.partyReader(e.cache)
		mux := http.NewServeMux()
		svc.Register(mux)
		e.bases = []string{e.serve(mux).URL}
		return e.addMembers(cfg, repeatMembers, false)
	})
}

// setupCluster starts a 3-node in-process TN cluster sharing one ring,
// without the capacity model whose sleeps would measure its floor.
func setupCluster(ctx context.Context, cfg *runConfig, tr *tracer) (*env, error) {
	return build(tr, func(e *env) error {
		dir, err := os.MkdirTemp("", "benchsuite-cluster-")
		if err != nil {
			return err
		}
		e.closers = append(e.closers, func() { os.RemoveAll(dir) })
		keys, err := pki.GenerateKeyPair()
		if err != nil {
			return err
		}
		peerHT := http.DefaultTransport.(*http.Transport).Clone()
		e.closers = append(e.closers, peerHT.CloseIdleConnections)
		peerT := &wsrpc.Transport{HTTP: &http.Client{Timeout: 30 * time.Second, Transport: tr.roundTripper(peerHT)}}

		e.trust = pki.NewTrustStore(e.ca)
		e.ctl = controllerParty(e.trust)
		ring := cluster.NewRing(0)
		nodes := make([]*cluster.Node, clusterNodes)
		for i := range nodes {
			name := fmt.Sprintf("n%d", i+1)
			svc := e.newTN(e.ctl)
			svc.Logf = func(string, ...any) {}
			mux := http.NewServeMux()
			srv := e.serve(mux)
			node, err := cluster.NewNode(cluster.Config{
				Name: name, Ring: ring, TN: svc, Transport: peerT, Metrics: e.reg, Keys: keys,
			})
			if err != nil {
				return err
			}
			db, err := store.OpenWithOptions(filepath.Join(dir, name), store.Options{OnCommit: node.OnCommit})
			if err != nil {
				return err
			}
			e.closers = append(e.closers, func() { db.Close() })
			node.AttachDB(db)
			node.Register(mux)
			nctx, cancel := context.WithCancel(ctx)
			e.closers = append(e.closers, cancel)
			node.Start(nctx)
			ring.Add(name)
			nodes[i] = node
			e.bases = append(e.bases, srv.URL)
		}
		for i, n := range nodes {
			for j, peer := range nodes {
				if i != j {
					n.SetPeer(peer.Name(), e.bases[j])
				}
			}
		}
		e.nodes = clusterNodes
		return e.addMembers(cfg, repeatMembers, false)
	})
}

// generators returns one op stream per load goroutine.
func (e *env) generators(spec *workloadSpec, seed int64) []*opGen {
	n := workers
	if spec.open {
		n = 1
	}
	gens := make([]*opGen, n)
	for w := range gens {
		writeP := 0.0
		if e.db != nil {
			writeP = churnWriteP
		}
		gens[w] = newOpGen(seed, w, len(e.members), e.nodes, writeP, workerSlots(w))
	}
	return gens
}

// do runs one op and returns its timed duration. An error is a failed
// op: a transport or protocol error, or a verdict other than expected.
func (e *env) do(ctx context.Context, o op) (time.Duration, error) {
	switch {
	case o.write:
		return e.write(ctx, o)
	case e.tk != nil:
		return e.joinToolkit(ctx, o)
	default:
		return e.joinTN(ctx, o)
	}
}

// joinTN is a standalone negotiation; rogue members must be refused.
func (e *env) joinTN(ctx context.Context, o op) (time.Duration, error) {
	m := hookParty(ctx, e.members[o.member])
	cli := &wsrpc.TNClient{BaseURL: e.bases[o.node], Party: m, Transport: e.wsT}
	t0 := time.Now()
	out, err := cli.Negotiate(ctx, membership)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("join as %s: %w", m.Name, err)
	}
	if want := !e.rogue[o.member]; out.Succeeded != want {
		return d, fmt.Errorf("join as %s: granted=%v, want %v (%s)", m.Name, out.Succeeded, want, out.Reason)
	}
	return d, nil
}

// joinToolkit is the Fig. 9 join. The membership token must verify
// against the VO authority with the joined role; the member is then
// removed again, untimed, so the next join admits afresh.
func (e *env) joinToolkit(ctx context.Context, o op) (time.Duration, error) {
	mc := e.mcs[o.member]
	if p := hookParty(ctx, mc.Party); p != mc.Party {
		mc = &wsrpc.MemberClient{BaseURL: mc.BaseURL, Party: p, Transport: e.wsT}
	}
	name := mc.Party.Name
	t0 := time.Now()
	der, _, err := mc.Join(ctx, roleName)
	d := time.Since(t0)
	endJoin(ctx)
	if err != nil {
		return d, fmt.Errorf("join as %s: %w", name, err)
	}
	m, err := e.tk.Initiator.VerifyPeerMembership(der)
	if err != nil {
		return d, fmt.Errorf("membership token of %s: %w", name, err)
	}
	if m.Name != name || m.Role != roleName {
		return d, fmt.Errorf("membership token names %s as %s, want %s as %s", m.Name, m.Role, name, roleName)
	}
	if err := e.tk.Initiator.VO.Remove(name); err != nil {
		return d, fmt.Errorf("remove %s: %w", name, err)
	}
	return d, nil
}

// write overwrites a policy slot and records the acknowledged value.
func (e *env) write(ctx context.Context, o op) (time.Duration, error) {
	doc, err := policyDOM(o.slot, o.value)
	if err != nil {
		return 0, err
	}
	want := doc.XML()
	sp := e.tr.begin(spanFrom(ctx), "store.put")
	t0 := time.Now()
	err = e.db.Put(partydb.KindPolicy, policyKey(o.slot), doc)
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return d, fmt.Errorf("put policy slot %d: %w", o.slot, err)
	}
	e.ack(o.slot, want)
	return d, nil
}

func (e *env) ack(slot int, xml string) {
	e.polMu.Lock()
	defer e.polMu.Unlock()
	e.acked[slot] = xml
}

// check runs the end-of-run invariants once load has drained and
// returns one message per violation.
func (e *env) check() []string {
	var bad []string
	created := e.reg.Counter("tn_sessions_created_total").Value()
	completed := e.reg.Counter("tn_sessions_completed_total", "result", "success").Value() +
		e.reg.Counter("tn_sessions_completed_total", "result", "failure").Value()
	expired := e.reg.Counter("tn_sessions_swept_total", "reason", "expired").Value()
	evicted := e.reg.Counter("tn_sessions_swept_total", "reason", "evicted").Value()
	if created != completed+expired+evicted {
		bad = append(bad, fmt.Sprintf("sessions: created %d != completed %d + expired %d + evicted %d",
			created, completed, expired, evicted))
	}
	if active := e.reg.Gauge("tn_sessions_active").Value(); active != 0 {
		bad = append(bad, fmt.Sprintf("sessions: %d still active after drain", active))
	}
	if e.db != nil {
		e.polMu.Lock()
		defer e.polMu.Unlock()
		for slot, want := range e.acked {
			rec, err := e.db.Get(partydb.KindPolicy, policyKey(slot))
			switch {
			case err != nil:
				bad = append(bad, fmt.Sprintf("policy slot %d: read back: %v", slot, err))
			case rec.XML != want:
				bad = append(bad, fmt.Sprintf("policy slot %d: read back %q, last acked %q", slot, rec.XML, want))
			}
		}
	}
	if e.nodes > 0 {
		if n := e.reg.Counter("cluster_standby_ships_total", "result", "error").Value(); n != 0 {
			bad = append(bad, fmt.Sprintf("cluster: %d standby ships failed", n))
		}
	}
	return bad
}
