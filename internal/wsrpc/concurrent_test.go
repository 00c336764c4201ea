package wsrpc

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"trustvo/internal/core"
	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/vo"
	"trustvo/internal/vo/registry"
	"trustvo/internal/xtnl"
)

// concurrentTN hosts one standalone TN service whose policy demands a
// WorkPermit, plus n requester parties each holding their own.
func concurrentTN(t *testing.T, n int) (*TNService, *httptest.Server, []*negotiation.Party) {
	t.Helper()
	ca := pki.MustNewAuthority("CertCA")
	ctl := &negotiation.Party{
		Name:     "Ctl",
		Profile:  xtnl.NewProfile("Ctl"),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies("R <- WorkPermit")...),
		Trust:    pki.NewTrustStore(ca),
		Grant:    func(resource, peer string) ([]byte, error) { return []byte("ok"), nil },
	}
	svc := NewTNService(ctl)
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	members := make([]*negotiation.Party, n)
	for i := range members {
		name := fmt.Sprintf("worker-%02d", i)
		prof := xtnl.NewProfile(name)
		prof.Add(ca.MustIssue(pki.IssueRequest{Type: "WorkPermit", Holder: name}))
		members[i] = &negotiation.Party{
			Name: name, Profile: prof,
			Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(ca),
		}
	}
	return svc, srv, members
}

// TestConcurrentJoinThroughput is the tentpole's regression: 32 members
// negotiate admission against ONE live TN service simultaneously (twice
// each, so the second round re-verifies already-seen credentials).
// Every join must succeed, the verification cache must have been hit,
// and the session lifecycle counters must reconcile exactly — with the
// striped session table, created == completed + expired + evicted and a
// zero active gauge prove no session was lost or double-retired. Run
// under -race in CI.
func TestConcurrentJoinThroughput(t *testing.T) {
	const members, rounds = 32, 2
	svc, srv, parties := concurrentTN(t, members)

	errs := make(chan error, members)
	for _, p := range parties {
		go func(p *negotiation.Party) {
			cli := &TNClient{BaseURL: srv.URL, Party: p}
			for r := 0; r < rounds; r++ {
				out, err := cli.Negotiate(bg, "R")
				if err != nil {
					errs <- fmt.Errorf("%s round %d: %w", p.Name, r, err)
					return
				}
				if !out.Succeeded || string(out.Grant) != "ok" {
					errs <- fmt.Errorf("%s round %d: outcome %+v", p.Name, r, out)
					return
				}
			}
			errs <- nil
		}(p)
	}
	for i := 0; i < members; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	stats := svc.Party.Trust.CacheStats()
	if stats.Hits == 0 {
		t.Fatalf("verification cache never hit across %d joins: %+v", members*rounds, stats)
	}
	reg := svc.Metrics
	created := reg.Counter("tn_sessions_created_total").Value()
	completed := reg.Counter("tn_sessions_completed_total", "result", "success").Value() +
		reg.Counter("tn_sessions_completed_total", "result", "failure").Value()
	expired := reg.Counter("tn_sessions_swept_total", "reason", "expired").Value()
	evicted := reg.Counter("tn_sessions_swept_total", "reason", "evicted").Value()
	active := reg.Gauge("tn_sessions_active").Value()
	if created != int64(members*rounds) {
		t.Fatalf("created = %d, want %d", created, members*rounds)
	}
	if created != completed+expired+evicted {
		t.Fatalf("lifecycle counters do not reconcile: created %d != completed %d + expired %d + evicted %d",
			created, completed, expired, evicted)
	}
	if active != 0 {
		t.Fatalf("tn_sessions_active = %d after all joins drained, want 0", active)
	}
}

// TestSuspendDuringSweepSingleRetire races SuspendSessions against the
// expiry sweep over the striped table. Before retire()'s CAS, a session
// caught by both a sweep and a concurrent completion/suspend path could
// be retired twice, double-decrementing the active gauge. Here every
// stale session must be counted expired exactly once, the gauge must
// land on exactly zero (an underflow exposes a double retire), and the
// suspended copies must restore cleanly into a fresh service.
func TestSuspendDuringSweepSingleRetire(t *testing.T) {
	const sessions = 8
	svc, srv, parties := concurrentTN(t, sessions)
	svc.MaxSessionAge = 20 * time.Millisecond

	// Open one mid-negotiation session per party: started, one message
	// exchanged (a session with no state is skipped by suspend), never
	// finished.
	for _, p := range parties {
		cli := &TNClient{BaseURL: srv.URL, Party: p}
		id, err := cli.Start(bg, "R")
		if err != nil {
			t.Fatal(err)
		}
		ep := negotiation.NewRequester(p, "R")
		msg, err := ep.Start()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Exchange(bg, id, msg); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(60 * time.Millisecond) // all sessions now stale

	db := store.New()
	var (
		wg        sync.WaitGroup
		suspended int
		susErr    error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		suspended, susErr = svc.SuspendSessions(db)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			svc.Sessions() // sweeps every stripe
		}
	}()
	wg.Wait()
	if susErr != nil {
		t.Fatal(susErr)
	}

	reg := svc.Metrics
	expired := reg.Counter("tn_sessions_swept_total", "reason", "expired").Value()
	if expired != sessions {
		t.Fatalf("expired = %d, want exactly %d (double retire inflates, lost retire deflates)", expired, sessions)
	}
	if active := reg.Gauge("tn_sessions_active").Value(); active != 0 {
		t.Fatalf("tn_sessions_active = %d after sweep, want 0", active)
	}
	if svc.Sessions() != 0 {
		t.Fatal("stale sessions still in the table")
	}

	// The suspended snapshots restore into a fresh service and claim
	// fresh capacity slots — once each.
	svc2, _, _ := concurrentTN(t, 0)
	svc2.Party = svc.Party
	resumed, err := svc2.ResumeSessions(db)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != suspended {
		t.Fatalf("resumed %d of %d suspended sessions", resumed, suspended)
	}
	if active := svc2.Metrics.Gauge("tn_sessions_active").Value(); active != int64(resumed) {
		t.Fatalf("restored service gauge = %d, want %d", active, resumed)
	}
	if got := svc2.Sessions(); got != resumed {
		t.Fatalf("restored service holds %d sessions, want %d", got, resumed)
	}
}

// BenchmarkConcurrentJoin measures one full standalone negotiation over
// live HTTP per iteration, with the service's caches warm — the unit the
// cmd/benchjoin -concurrency harness aggregates.
func BenchmarkConcurrentJoin(b *testing.B) {
	ca := pki.MustNewAuthority("CertCA")
	ctl := &negotiation.Party{
		Name:     "Ctl",
		Profile:  xtnl.NewProfile("Ctl"),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies("R <- WorkPermit")...),
		Trust:    pki.NewTrustStore(ca),
		Grant:    func(resource, peer string) ([]byte, error) { return []byte("ok"), nil },
	}
	svc := NewTNService(ctl)
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	prof := xtnl.NewProfile("Req")
	prof.Add(ca.MustIssue(pki.IssueRequest{Type: "WorkPermit", Holder: "Req"}))
	req := &negotiation.Party{
		Name: "Req", Profile: prof,
		Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(ca),
	}
	cli := &TNClient{BaseURL: srv.URL, Party: req}
	if out, err := cli.Negotiate(bg, "R"); err != nil || !out.Succeeded {
		b.Fatalf("warm-up: %v %+v", err, out)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := cli.Negotiate(bg, "R")
		if err != nil || !out.Succeeded {
			b.Fatalf("join %d: %v %+v", i, err, out)
		}
	}
}

// TestAgentForConcurrent looks up mailbox agents from concurrent
// /vo/apply handlers. The agent map was unguarded, which -race reports
// here on every run (TestConcurrentJoinsOverHTTP reached it only
// sometimes, through the HTTP stack's own synchronization).
func TestAgentForConcurrent(t *testing.T) {
	contract := &vo.Contract{
		VOName: "V", Initiator: "Ini",
		Roles: []vo.RoleSpec{{Name: "Worker", MinMembers: 1, AdmissionPolicies: xtnl.MustParsePolicies("M <- DELIV")}},
	}
	party := &negotiation.Party{Name: "Ini", Profile: xtnl.NewProfile("Ini"), Policies: xtnl.MustPolicySet()}
	ini, err := core.NewInitiator(contract, party, registry.New())
	if err != nil {
		t.Fatal(err)
	}
	tk := NewToolkitService(ini)
	const providers = 8
	for i := 0; i < providers; i++ {
		if err := ini.Registry.Publish(&registry.Description{Provider: fmt.Sprintf("p%d", i), Service: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	agents := make([]*core.MemberAgent, providers)
	var wg sync.WaitGroup
	for i := 0; i < providers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := tk.agentFor(fmt.Sprintf("p%d", i))
			if err != nil {
				t.Error(err)
			}
			agents[i] = a
		}(i)
	}
	wg.Wait()
	for i, a := range agents {
		if again, _ := tk.agentFor(fmt.Sprintf("p%d", i)); again != a {
			t.Errorf("provider p%d: second lookup returned a different agent", i)
		}
	}
}
