package wsrpc

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"trustvo/internal/faultinject"
	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/telemetry"
	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// faultRetry is an aggressive retry budget for fault-injected loopback
// tests: convergence matters, latency does not.
func faultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}
}

// TestJoinUnderFaultModes runs the full VO join under each injected
// fault mode (and the mixed profile) with a fixed seed, requiring every
// join to converge — directly via retries or through a suspend/resume
// round — and the fault machinery to actually fire.
func TestJoinUnderFaultModes(t *testing.T) {
	const joins = 5
	modes := []struct {
		name string
		cfg  faultinject.Config
	}{
		{"drop", faultinject.Config{Seed: 3, Drop: 0.20}},
		{"delay", faultinject.Config{Seed: 3, Delay: 0.50, MaxDelay: 2 * time.Millisecond}},
		{"duplicate", faultinject.Config{Seed: 3, Duplicate: 0.50}},
		{"truncate", faultinject.Config{Seed: 3, Truncate: 0.30}},
		{"mixed", faultinject.Config{Seed: 3, Drop: 0.15, Delay: 0.30, MaxDelay: 2 * time.Millisecond,
			Duplicate: 0.05, Truncate: 0.05}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			f := newWSFixture(t)
			f.publishMember(t)
			reg := f.tk.TN.Metrics
			ft := faultinject.New(mode.cfg, nil)
			ft.Metrics = reg
			f.member.Transport = &Transport{
				HTTP:    &http.Client{Transport: ft},
				Retry:   faultRetry(),
				Metrics: reg,
			}
			for i := 0; i < joins; i++ {
				if f.tk.Initiator.VO.Member("AerospaceCo") != nil {
					if err := f.tk.Initiator.VO.Remove("AerospaceCo"); err != nil {
						t.Fatal(err)
					}
				}
				der, out, err := f.member.Join(bg, "DesignWebPortal")
				for resumed := 0; err != nil; resumed++ {
					var se *SuspendedError
					if !errors.As(err, &se) {
						t.Fatalf("join %d failed unrecoverably: %v", i, err)
					}
					if resumed >= 10 {
						t.Fatalf("join %d did not converge after %d resumes: %v", i, resumed, err)
					}
					der, out, err = f.member.ResumeJoin(bg, se.Ticket)
				}
				if !out.Succeeded || len(der) == 0 {
					t.Fatalf("join %d: %+v", i, out)
				}
			}
			if got := ft.Stats.Requests.Load(); got == 0 {
				t.Fatal("fault transport saw no requests")
			}
			injected := ft.Stats.DropsPre.Load() + ft.Stats.DropsPost.Load() +
				ft.Stats.Delays.Load() + ft.Stats.Duplicates.Load() + ft.Stats.Truncations.Load()
			if injected == 0 {
				t.Fatalf("seed %d injected no faults over %d requests", mode.cfg.Seed, ft.Stats.Requests.Load())
			}
			// lossy modes must exercise the retry loop; duplication must
			// exercise the server's replay cache
			switch mode.name {
			case "drop", "truncate", "mixed":
				if sumRouteCounter(reg, "wsrpc_client_retries_total") == 0 {
					t.Fatal("no client retries recorded under a lossy fault mode")
				}
			case "duplicate":
				if reg.Counter("tn_replays_total").Value() == 0 {
					t.Fatal("no server replays recorded under duplicated delivery")
				}
			}
		})
	}
}

func sumRouteCounter(reg *telemetry.Registry, name string) int64 {
	var total int64
	for _, route := range []string{
		"/tn/start", "/tn/policyExchange", "/tn/credentialExchange", "/vo/apply",
	} {
		total += reg.Counter(name, "route", route).Value()
	}
	return total
}

// gateTransport passes requests through until `after` of them have been
// made, then fails everything at the connection level until reopened.
type gateTransport struct {
	after int64
	n     atomic.Int64
	open  atomic.Bool
}

func (g *gateTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !g.open.Load() && g.n.Add(1) > g.after {
		return nil, errors.New("link down")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestJoinSuspendsAndResumes cuts the link hard mid-negotiation: the
// join must fail with a SuspendedError carrying a signed resume ticket,
// and once the link is back, ResumeJoin completes the admission from the
// last acknowledged tree state.
func TestJoinSuspendsAndResumes(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	reg := f.tk.TN.Metrics
	// 3 clean requests: /vo/apply, /tn/start, first exchange (the policy
	// reply builds the requester's tree); then the link goes down
	gate := &gateTransport{after: 3}
	f.member.Transport = &Transport{
		HTTP:    &http.Client{Transport: gate},
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Metrics: reg,
	}
	f.member.Party.Keys = pki.MustGenerateKeyPair() // tickets get signed

	_, _, err := f.member.Join(bg, "DesignWebPortal")
	var se *SuspendedError
	if !errors.As(err, &se) {
		t.Fatalf("expected SuspendedError, got %v", err)
	}
	if se.Ticket == nil || se.Ticket.NegID == "" || se.Ticket.State == nil || se.Ticket.LastSent == nil {
		t.Fatalf("incomplete resume ticket: %+v", se.Ticket)
	}
	if len(se.Ticket.Signature) == 0 {
		t.Fatal("ticket not signed despite party keys")
	}
	if got := reg.Counter("tn_suspends_total").Value(); got != 1 {
		t.Fatalf("tn_suspends_total = %d", got)
	}

	// round-trip the ticket through its bytes, as a persisted ticket would
	ticket, err := negotiation.ParseResumeTicket(se.Ticket.XML())
	if err != nil {
		t.Fatal(err)
	}

	gate.open.Store(true)
	der, out, err := f.member.ResumeJoin(bg, ticket)
	if err != nil || !out.Succeeded {
		t.Fatalf("resume: %v %+v", err, out)
	}
	if _, err := f.tk.Initiator.VO.Authority.VerifyMembership(der); err != nil {
		t.Fatalf("membership token after resume: %v", err)
	}
	if got := reg.Counter("tn_resumes_total").Value(); got != 1 {
		t.Fatalf("tn_resumes_total = %d", got)
	}
	// the interrupted negotiation finished; it did not restart
	if got := reg.Counter("tn_sessions_created_total").Value(); got != 1 {
		t.Fatalf("tn_sessions_created_total = %d, want 1 (no restart)", got)
	}
}

// TestExpiredResumeTicketRejected pins the ticket TTL contract: the
// rejection is the typed, counted 410 — distinguishable by a caller and
// visible in telemetry — and still matches the sentinel error.
func TestExpiredResumeTicketRejected(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	reg := telemetry.NewRegistry()
	gate := &gateTransport{after: 3}
	f.member.Transport = &Transport{
		HTTP:    &http.Client{Transport: gate},
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Metrics: reg,
	}
	f.member.ResumeTTL = time.Nanosecond
	_, _, err := f.member.Join(bg, "DesignWebPortal")
	var se *SuspendedError
	if !errors.As(err, &se) {
		t.Fatalf("expected SuspendedError, got %v", err)
	}
	gate.open.Store(true)
	time.Sleep(time.Millisecond)
	_, _, err = f.member.ResumeJoin(bg, se.Ticket)
	if !errors.Is(err, negotiation.ErrBadResumeTicket) {
		t.Fatalf("expired ticket accepted: %v", err)
	}
	var we *Error
	if !errors.As(err, &we) {
		t.Fatalf("expiry not a typed *Error: %v", err)
	}
	if we.Status != http.StatusGone || we.Code != "ticket-expired" {
		t.Fatalf("expiry error = status %d code %q, want 410 ticket-expired", we.Status, we.Code)
	}
	if we.Temporary {
		t.Fatal("ticket expiry marked temporary; it must not be retried")
	}
	if got := reg.Counter("tn_ticket_expired_total").Value(); got != 1 {
		t.Fatalf("tn_ticket_expired_total = %d, want 1", got)
	}
}

// TestStrippedResumeTicketRejected: a holder with keys must find a valid
// seal on its resume ticket. A persisted ticket that was tampered with
// and had its signature removed used to resume as if its holder had no
// keys.
func TestStrippedResumeTicketRejected(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	gate := &gateTransport{after: 3}
	f.member.Transport = &Transport{
		HTTP:  &http.Client{Transport: gate},
		Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	}
	f.member.Party.Keys = pki.MustGenerateKeyPair()
	_, _, err := f.member.Join(bg, "DesignWebPortal")
	var se *SuspendedError
	if !errors.As(err, &se) {
		t.Fatalf("expected SuspendedError, got %v", err)
	}

	tampered := *se.Ticket
	tampered.NegID = "someone-else"
	tampered.Signature = nil
	ticket, err := negotiation.ParseResumeTicket(tampered.XML())
	if err != nil {
		t.Fatal(err)
	}

	wire := &errTransport{}
	f.member.Transport = &Transport{HTTP: &http.Client{Transport: wire}}
	if _, err := f.member.tnClient().Resume(bg, ticket); !errors.Is(err, negotiation.ErrBadResumeTicket) {
		t.Fatalf("stripped ticket: err = %v, want ErrBadResumeTicket", err)
	}
	if n := wire.hits.Load(); n != 0 {
		t.Fatalf("resume from a stripped ticket sent %d requests", n)
	}
}

// splitTransport triggers a one-shot network partition after `after`
// requests have passed through, simulating a link that goes down
// mid-negotiation rather than before it.
type splitTransport struct {
	inner http.RoundTripper
	after int64
	n     atomic.Int64
	split func()
}

func (s *splitTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if s.n.Add(1) == s.after {
		s.split()
	}
	return s.inner.RoundTrip(r)
}

// TestJoinThroughPartitionWindow cuts the member off from the toolkit
// at the partition board mid-join: the fault transport refuses the
// partitioned requests (counted), and the join converges through
// retries or a suspend/resume round once the window closes.
func TestJoinThroughPartitionWindow(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	reg := telemetry.NewRegistry()
	net := faultinject.NewNet()
	serverEP := f.srv.Listener.Addr().String()

	ft := faultinject.New(faultinject.Config{}, nil)
	ft.Net = net
	ft.LocalEndpoint = "member-client"
	ft.Metrics = reg
	f.member.Transport = &Transport{
		HTTP: &http.Client{Transport: &splitTransport{
			inner: ft,
			after: 3, // partition lands mid-negotiation, after the handshake started
			split: func() {
				net.SplitFor([]string{"member-client"}, []string{serverEP}, 25*time.Millisecond)
			},
		}},
		Retry:           faultRetry(),
		BreakerCooldown: 20 * time.Millisecond,
		Metrics:         reg,
	}

	der, out, err := f.member.Join(bg, "DesignWebPortal")
	for resumed := 0; err != nil; resumed++ {
		var se *SuspendedError
		if !errors.As(err, &se) {
			t.Fatalf("join failed unrecoverably: %v", err)
		}
		if resumed >= 10 {
			t.Fatalf("join did not converge after %d resumes: %v", resumed, err)
		}
		time.Sleep(10 * time.Millisecond)
		der, out, err = f.member.ResumeJoin(bg, se.Ticket)
	}
	if !out.Succeeded || len(der) == 0 {
		t.Fatalf("join through partition: %+v", out)
	}
	if got := ft.Stats.Partitioned.Load(); got == 0 {
		t.Fatal("partition window injected no refusals")
	}
	if got := net.Splits(); got != 1 {
		t.Fatalf("net recorded %d splits, want 1", got)
	}
}

// standaloneTN builds a plain TN service (opaque grant, no VO toolkit)
// plus a requester party holding the credential its policy demands.
func standaloneTN(t testing.TB) (*TNService, *negotiation.Party, *negotiation.Party) {
	t.Helper()
	ca := pki.MustNewAuthority("CertCA")
	ctl := &negotiation.Party{
		Name:     "Ctl",
		Profile:  xtnl.NewProfile("Ctl"),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies("R <- WebDesignerQuality")...),
		Trust:    pki.NewTrustStore(ca),
		Grant:    func(resource, peer string) ([]byte, error) { return []byte("ok"), nil },
	}
	prof := xtnl.NewProfile("Req")
	prof.Add(ca.MustIssue(pki.IssueRequest{Type: "WebDesignerQuality", Holder: "Req"}))
	req := &negotiation.Party{
		Name: "Req", Profile: prof,
		Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(ca),
	}
	return NewTNService(ctl), ctl, req
}

// TestServerSuspendResumeSessions restarts the service mid-negotiation:
// live sessions are persisted to the store, a fresh service restores
// them, and the client's resume ticket completes against the new
// process.
func TestServerSuspendResumeSessions(t *testing.T) {
	svc1, ctl, req := standaloneTN(t)
	mux1 := http.NewServeMux()
	svc1.Register(mux1)
	srv1 := httptest.NewServer(mux1)
	defer srv1.Close()

	gate := &gateTransport{after: 2} // /tn/start + first exchange succeed
	client := &TNClient{
		BaseURL: srv1.URL, Party: req,
		Transport: &Transport{
			HTTP:  &http.Client{Transport: gate},
			Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		},
	}
	_, err := client.Negotiate(bg, "R")
	var se *SuspendedError
	if !errors.As(err, &se) {
		t.Fatalf("expected SuspendedError, got %v", err)
	}

	db := store.New()
	n, err := svc1.SuspendSessions(db)
	if err != nil || n != 1 {
		t.Fatalf("suspend: n=%d err=%v", n, err)
	}
	srv1.Close()

	// a fresh service — the "restarted" process — restores the session
	svc2 := NewTNService(ctl)
	if n, err := svc2.ResumeSessions(db); err != nil || n != 1 {
		t.Fatalf("resume sessions: n=%d err=%v", n, err)
	}
	if len(db.List(KindTNSession)) != 0 {
		t.Fatal("resumed session records not deleted from the store")
	}
	mux2 := http.NewServeMux()
	svc2.Register(mux2)
	srv2 := httptest.NewServer(mux2)
	defer srv2.Close()

	gate.open.Store(true)
	client.BaseURL = srv2.URL
	out, err := client.Resume(bg, se.Ticket)
	if err != nil || !out.Succeeded {
		t.Fatalf("resume against restarted service: %v %+v", err, out)
	}
	if string(out.Grant) != "ok" {
		t.Fatalf("grant = %q", out.Grant)
	}
}

// TestResumeSessionsDropsIdleSessions: a suspended session's document
// carries its last use, and the restart applies the table's idle limit
// to it. A session idle past MaxSessionAge by the time the store is
// read, and one whose recorded lastUsed does not parse, each restore
// nothing, and their records are deleted; the same record read before
// its limit restores.
func TestResumeSessionsDropsIdleSessions(t *testing.T) {
	svc1, ctl, req := standaloneTN(t)
	mux := http.NewServeMux()
	svc1.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := &TNClient{
		BaseURL: srv.URL, Party: req,
		Transport: &Transport{
			HTTP:  &http.Client{Transport: &gateTransport{after: 2}},
			Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		},
	}
	var se *SuspendedError
	if _, err := client.Negotiate(bg, "R"); !errors.As(err, &se) {
		t.Fatalf("expected SuspendedError, got %v", err)
	}
	suspended := store.New()
	if n, err := svc1.SuspendSessions(suspended); err != nil || n != 1 {
		t.Fatalf("suspend: n=%d err=%v", n, err)
	}
	rec := suspended.List(KindTNSession)[0]
	if !strings.Contains(rec.XML, ` lastUsed="`) {
		t.Fatalf("suspended document carries no lastUsed: %s", rec.XML)
	}
	malformed := strings.Replace(rec.XML, ` lastUsed="`, ` lastUsed="x`, 1)
	time.Sleep(20 * time.Millisecond)

	for _, tc := range []struct {
		name   string
		xml    string
		maxAge time.Duration
		want   int
	}{
		{"within its idle limit", rec.XML, time.Minute, 1},
		{"idle past its limit", rec.XML, 10 * time.Millisecond, 0},
		{"malformed lastUsed", malformed, time.Minute, 0},
	} {
		db := store.New()
		if err := db.PutXML(KindTNSession, rec.Key, tc.xml); err != nil {
			t.Fatal(err)
		}
		svc := NewTNService(ctl)
		svc.MaxSessionAge = tc.maxAge
		n, err := svc.ResumeSessions(db)
		if err != nil || n != tc.want {
			t.Fatalf("%s: resumed %d (err %v), want %d", tc.name, n, err, tc.want)
		}
		if svc.HasSession(rec.Key) != (tc.want == 1) {
			t.Fatalf("%s: session live = %v, want %v", tc.name, svc.HasSession(rec.Key), tc.want == 1)
		}
		if left := db.List(KindTNSession); len(left) != 0 {
			t.Fatalf("%s: %d records left in the store", tc.name, len(left))
		}
	}
}

// TestDuplicateEnvelopeReplayed posts the same sequenced envelope twice
// and requires byte-identical responses plus a replay counter hit — the
// at-most-once guarantee duplicated deliveries rely on.
func TestDuplicateEnvelopeReplayed(t *testing.T) {
	svc, _, req := standaloneTN(t)
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	client := &TNClient{BaseURL: srv.URL, Party: req}
	negID, err := client.Start(bg, "R")
	if err != nil {
		t.Fatal(err)
	}
	ep := negotiation.NewRequester(req, "R")
	msg, err := ep.Start()
	if err != nil {
		t.Fatal(err)
	}
	env := envelopeSeq(negID, 7, msg).XML()
	post := func() (int, string) {
		resp, err := http.Post(srv.URL+"/tn/policyExchange", ContentType, strings.NewReader(env))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}
	s1, b1 := post()
	s2, b2 := post()
	if s1 != s2 || b1 != b2 {
		t.Fatalf("replay not byte-identical: %d %d\n%s\n---\n%s", s1, s2, b1, b2)
	}
	if got := svc.Metrics.Counter("tn_replays_total").Value(); got != 1 {
		t.Fatalf("tn_replays_total = %d, want 1", got)
	}
}

// TestCapacity503RetryAfter: a full service answers 503 with a concrete
// Retry-After and a counted rejection instead of an unexplained failure.
func TestCapacity503RetryAfter(t *testing.T) {
	f := newWSFixture(t)
	f.tk.TN.MaxSessions = 1
	tn := &TNClient{BaseURL: f.srv.URL, Party: f.member.Party}
	if _, err := tn.Start(bg, "R"); err != nil {
		t.Fatal(err)
	}
	req := xmldom.NewElement("startNegotiationRequest").
		SetAttr("strategy", f.member.Party.Strategy.String()).
		SetAttr("resource", "R")
	resp, err := http.Post(f.srv.URL+"/tn/start", ContentType, strings.NewReader(req.XML()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("503 without Retry-After")
	}
	root, err := xmldom.Parse(resp.Body)
	if err != nil || root.Name != "fault" || root.AttrOr("code", "") != "capacity" {
		t.Fatalf("capacity fault body: %v %s", err, root.XML())
	}
	if got := f.tk.TN.Metrics.Counter("tn_start_rejected_total", "reason", "capacity").Value(); got != 1 {
		t.Fatalf("tn_start_rejected_total = %d", got)
	}
}
