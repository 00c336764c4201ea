package wsrpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trustvo/internal/core"
	"trustvo/internal/negotiation"
	"trustvo/internal/partydb"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/vo"
	"trustvo/internal/vo/registry"
	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// bg is the context for test client calls.
var bg = context.Background()

// wsFixture hosts an initiator's toolkit (TN included) on an httptest
// server and provides a capable member client.
type wsFixture struct {
	srv    *httptest.Server
	tk     *ToolkitService
	member *MemberClient
	ca     *pki.Authority
}

func newWSFixture(t testing.TB) *wsFixture {
	t.Helper()
	ca := pki.MustNewAuthority("CertCA")
	iniParty := &negotiation.Party{
		Name:     "AircraftCo",
		Profile:  xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(),
		Trust:    pki.NewTrustStore(ca),
	}
	contract := &vo.Contract{
		VOName:    "AircraftOptimizationVO",
		Goal:      "wing optimization",
		Initiator: "AircraftCo",
		Roles: []vo.RoleSpec{
			{Name: "DesignWebPortal", Capabilities: []string{"design-db"}, MinMembers: 1,
				AdmissionPolicies: xtnl.MustParsePolicies("M <- WebDesignerQuality(regulation='UNI EN ISO 9000')")},
			{Name: "Storage", MinMembers: 0,
				AdmissionPolicies: xtnl.MustParsePolicies("M <- DELIV")},
		},
		Rules: []vo.Rule{{Operation: "optimize", Callers: []string{"DesignWebPortal"}}},
	}
	ini, err := core.NewInitiator(contract, iniParty, registry.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := ini.VO.StartFormation(); err != nil {
		t.Fatal(err)
	}
	tk := NewToolkitService(ini)
	mux := http.NewServeMux()
	tk.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	memberProfile := xtnl.NewProfile("AerospaceCo")
	memberProfile.Add(ca.MustIssue(pki.IssueRequest{
		Type: "WebDesignerQuality", Holder: "AerospaceCo",
		Attributes: []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}},
	}))
	member := &MemberClient{
		BaseURL: srv.URL,
		Party: &negotiation.Party{
			Name:     "AerospaceCo",
			Profile:  memberProfile,
			Policies: xtnl.MustPolicySet(),
			Trust:    pki.NewTrustStore(ca),
		},
	}
	return &wsFixture{srv: srv, tk: tk, member: member, ca: ca}
}

func (f *wsFixture) publishMember(t testing.TB) {
	t.Helper()
	err := f.member.Publish(bg, &registry.Description{
		Provider: "AerospaceCo", Service: "DesignPortal", Capabilities: []string{"design-db"},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJoinWithNegotiationOverHTTP(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)

	der, out, err := f.member.Join(bg, "DesignWebPortal")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Succeeded || out.Rounds == 0 {
		t.Fatalf("outcome: %+v", out)
	}
	// the grant verifies as an X.509 membership token
	tok, err := f.tk.Initiator.VO.Authority.VerifyMembership(der)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Member != "AerospaceCo" || tok.Role != "DesignWebPortal" {
		t.Fatalf("token: %+v", tok)
	}
	// toolkit views agree
	members, err := f.member.Members(bg)
	if err != nil {
		t.Fatal(err)
	}
	if members["AerospaceCo"] != "DesignWebPortal" {
		t.Fatalf("members = %v", members)
	}
	phase, n, err := f.member.VOStatus(bg)
	if err != nil || phase != "formation" || n != 1 {
		t.Fatalf("status = %s %d %v", phase, n, err)
	}
	// the mailbox recorded the invitation
	inbox, err := f.member.Mailbox(bg)
	if err != nil || len(inbox) != 1 || inbox[0].Role != "DesignWebPortal" {
		t.Fatalf("mailbox = %+v (%v)", inbox, err)
	}
}

func TestJoinDirectBaselineOverHTTP(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	der, err := f.member.JoinDirect(bg, "DesignWebPortal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.tk.Initiator.VO.Authority.VerifyMembership(der); err != nil {
		t.Fatal(err)
	}
	// joining again conflicts
	if _, err := f.member.JoinDirect(bg, "DesignWebPortal"); err == nil {
		t.Fatal("duplicate direct join accepted")
	}
}

func TestJoinFailsWithoutCredentialOverHTTP(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	f.member.Party.Profile = xtnl.NewProfile("AerospaceCo") // drop credentials
	_, out, err := f.member.Join(bg, "DesignWebPortal")
	if err == nil {
		t.Fatal("credential-less join succeeded")
	}
	if out == nil || out.Succeeded {
		t.Fatalf("outcome = %+v", out)
	}
	if f.tk.Initiator.VO.Member("AerospaceCo") != nil {
		t.Fatal("failed negotiator admitted")
	}
}

func TestOperateAndReputationOverHTTP(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	if _, _, err := f.member.Join(bg, "DesignWebPortal"); err != nil {
		t.Fatal(err)
	}
	// move to operation via the lifecycle endpoints
	resp, err := http.Post(f.srv.URL+"/vo/start-operation", ContentType, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResponse(resp, "ok"); err != nil {
		t.Fatal(err)
	}
	if err := f.member.Operate(bg, "optimize"); err != nil {
		t.Fatal(err)
	}
	// a rule violation is rejected and reported
	if err := f.member.Operate(bg, "exfiltrate"); err == nil {
		t.Fatal("illegal operation authorized")
	}
	if err := f.member.ReportViolation(bg, "AerospaceCo", "optimize", "late delivery", 2); err != nil {
		t.Fatal(err)
	}
	score, err := f.member.Reputation(bg, "AerospaceCo")
	if err != nil {
		t.Fatal(err)
	}
	if score <= 0 || score >= 1 {
		t.Fatalf("score = %v", score)
	}
}

func TestApplyFaults(t *testing.T) {
	f := newWSFixture(t)
	// unpublished provider
	if _, _, err := f.member.Apply(bg, "DesignWebPortal"); err == nil {
		t.Fatal("apply without publication accepted")
	}
	var fault *Fault
	_, _, err := f.member.Apply(bg, "DesignWebPortal")
	if !errors.As(err, &fault) || fault.Code != "registry" {
		t.Fatalf("fault = %v", err)
	}
	// unknown role
	f.publishMember(t)
	if _, _, err := f.member.Apply(bg, "NoSuchRole"); err == nil {
		t.Fatal("unknown role accepted")
	}
}

func TestTNServiceProtocolFaults(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	post := func(path, body string) (*http.Response, error) {
		return http.Post(f.srv.URL+path, ContentType, strings.NewReader(body))
	}
	// bad XML
	resp, _ := post("/tn/start", "<broken")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad xml status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// wrong root
	resp, _ = post("/tn/start", "<wrong/>")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong root status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// bad strategy
	resp, _ = post("/tn/start", `<startNegotiationRequest strategy="bogus"/>`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// GET on POST endpoint
	resp, _ = http.Get(f.srv.URL + "/tn/start")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// unknown negotiation id
	env := envelope("deadbeef", &negotiation.Message{Type: negotiation.MsgRequest, From: "x", Resource: "R"})
	resp, _ = post("/tn/policyExchange", env.XML())
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown negotiation status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// phase mismatch: a request message on the credentialExchange
	// operation is rejected (§6.2's operation/phase correspondence)
	tn := &TNClient{BaseURL: f.srv.URL, Party: f.member.Party}
	id, err := tn.Start(bg, "whatever")
	if err != nil {
		t.Fatal(err)
	}
	env = envelope(id, &negotiation.Message{Type: negotiation.MsgRequest, From: "x", Resource: "R"})
	resp, _ = post("/tn/credentialExchange", env.XML())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("phase mismatch status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestTNStatusEndpoint(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	tn := &TNClient{BaseURL: f.srv.URL, Party: f.member.Party}
	_, resource, err := f.member.Apply(bg, "DesignWebPortal")
	if err != nil {
		t.Fatal(err)
	}
	id, err := tn.Start(bg, resource)
	if err != nil {
		t.Fatal(err)
	}
	done, _, _, err := tn.Status(bg, id)
	if err != nil || done {
		t.Fatalf("fresh status: done=%v err=%v", done, err)
	}
	// run the negotiation manually against this id
	ep := negotiation.NewRequester(f.member.Party, resource)
	msg, _ := ep.Start()
	for msg != nil {
		reply, err := tn.Exchange(bg, id, msg)
		if err != nil {
			t.Fatal(err)
		}
		if reply == nil {
			break
		}
		if msg, err = ep.Handle(reply); err != nil {
			t.Fatal(err)
		}
	}
	done, succeeded, _, err := tn.Status(bg, id)
	if err != nil || !done || !succeeded {
		t.Fatalf("final status: done=%v ok=%v err=%v", done, succeeded, err)
	}
	if _, _, _, err := tn.Status(bg, "nope"); err == nil {
		t.Fatal("status of unknown negotiation should fault")
	}
}

func TestSessionExpiry(t *testing.T) {
	f := newWSFixture(t)
	f.tk.TN.MaxSessionAge = time.Millisecond
	tn := &TNClient{BaseURL: f.srv.URL, Party: f.member.Party}
	id, err := tn.Start(bg, "R")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	// sweeping happens on the next session creation
	if _, err := tn.Start(bg, "R"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tn.Status(bg, id); err == nil {
		t.Fatal("expired session still served")
	}
}

func TestSessionCapacity(t *testing.T) {
	f := newWSFixture(t)
	f.tk.TN.MaxSessions = 2
	tn := &TNClient{BaseURL: f.srv.URL, Party: f.member.Party}
	for i := 0; i < 2; i++ {
		if _, err := tn.Start(bg, "R"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tn.Start(bg, "R"); err == nil {
		t.Fatal("capacity limit not enforced")
	}
	if got := f.tk.TN.Sessions(); got != 2 {
		t.Fatalf("sessions = %d", got)
	}
}

func TestRegistryEndpoints(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	resp, err := http.Get(f.srv.URL + "/registry/list")
	if err != nil {
		t.Fatal(err)
	}
	root, err := decodeResponse(resp, "descriptions")
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Childs("serviceDescription")) != 1 {
		t.Fatalf("list = %s", root.XML())
	}
	resp, err = http.Get(f.srv.URL + "/registry/find?capability=design-db")
	if err != nil {
		t.Fatal(err)
	}
	root, err = decodeResponse(resp, "descriptions")
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Childs("serviceDescription")) != 1 {
		t.Fatalf("find = %s", root.XML())
	}
	resp, err = http.Get(f.srv.URL + "/registry/find?capability=nope")
	if err != nil {
		t.Fatal(err)
	}
	root, err = decodeResponse(resp, "descriptions")
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Childs("serviceDescription")) != 0 {
		t.Fatalf("impossible find = %s", root.XML())
	}
}

func TestDelivRoleJoinOverHTTP(t *testing.T) {
	f := newWSFixture(t)
	err := f.member.Publish(bg, &registry.Description{Provider: "AerospaceCo", Service: "S"})
	if err != nil {
		t.Fatal(err)
	}
	der, out, err := f.member.Join(bg, "Storage")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Succeeded || der == nil {
		t.Fatalf("DELIV join: %+v", out)
	}
}

func TestDBBackedSessions(t *testing.T) {
	// The controller's profile and policies live in the document store;
	// the service party is only an identity template. StartNegotiation
	// must rebuild the party from the DB (§6.2).
	ca := pki.MustNewAuthority("CertCA")
	db := store.New()
	full := &negotiation.Party{
		Name:    "AircraftCo",
		Profile: xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(
			"Certification <- AAAMember")...),
		Trust: pki.NewTrustStore(ca),
	}
	full.Profile.Add(ca.MustIssue(pki.IssueRequest{Type: "ISOCert", Holder: "AircraftCo"}))
	if err := partydb.SaveParty(db, full); err != nil {
		t.Fatal(err)
	}
	template := &negotiation.Party{
		Name:     "AircraftCo",
		Profile:  xtnl.NewProfile("AircraftCo"), // empty: must come from DB
		Policies: xtnl.MustPolicySet(),
		Trust:    pki.NewTrustStore(ca),
		Grant:    func(resource, peer string) ([]byte, error) { return []byte("ok"), nil },
	}
	svc := NewTNService(template)
	svc.DB = db
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	reqProf := xtnl.NewProfile("AerospaceCo")
	reqProf.Add(ca.MustIssue(pki.IssueRequest{Type: "AAAMember", Holder: "AerospaceCo"}))
	tn := &TNClient{BaseURL: srv.URL, Party: &negotiation.Party{
		Name: "AerospaceCo", Profile: reqProf,
		Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(ca),
	}}
	out, err := tn.Negotiate(bg, "Certification")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Succeeded {
		t.Fatalf("DB-backed negotiation failed: %s", out.Reason)
	}

	// Without the DB the template has no policies: the resource is not
	// offered.
	svc2 := NewTNService(template)
	mux2 := http.NewServeMux()
	svc2.Register(mux2)
	srv2 := httptest.NewServer(mux2)
	defer srv2.Close()
	tn2 := &TNClient{BaseURL: srv2.URL, Party: tn.Party}
	out, err = tn2.Negotiate(bg, "Certification")
	if err != nil {
		t.Fatal(err)
	}
	if out.Succeeded {
		t.Fatal("template-only service should not offer the resource")
	}
}

// TestConcurrentJoinsOverHTTP stresses the service with many members
// negotiating admission in parallel (distinct identities, shared role
// with ample capacity).
func TestConcurrentJoinsOverHTTP(t *testing.T) {
	ca := pki.MustNewAuthority("CertCA")
	iniParty := &negotiation.Party{
		Name:     "AircraftCo",
		Profile:  xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(),
		Trust:    pki.NewTrustStore(ca),
	}
	const members = 16
	contract := &vo.Contract{
		VOName: "BigVO", Initiator: "AircraftCo",
		Roles: []vo.RoleSpec{{
			Name: "Worker", MinMembers: 1, MaxMembers: members,
			AdmissionPolicies: xtnl.MustParsePolicies("M <- WorkPermit"),
		}},
	}
	ini, err := core.NewInitiator(contract, iniParty, registry.New())
	if err != nil {
		t.Fatal(err)
	}
	ini.VO.StartFormation()
	tk := NewToolkitService(ini)
	mux := http.NewServeMux()
	tk.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	errs := make(chan error, members)
	for i := 0; i < members; i++ {
		go func(i int) {
			name := fmt.Sprintf("worker-%02d", i)
			prof := xtnl.NewProfile(name)
			prof.Add(ca.MustIssue(pki.IssueRequest{Type: "WorkPermit", Holder: name}))
			mc := &MemberClient{
				BaseURL: srv.URL,
				Party: &negotiation.Party{
					Name: name, Profile: prof,
					Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(ca),
				},
			}
			if err := mc.Publish(bg, &registry.Description{Provider: name, Service: "work"}); err != nil {
				errs <- err
				return
			}
			der, out, err := mc.Join(bg, "Worker")
			if err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
				return
			}
			if !out.Succeeded || der == nil {
				errs <- fmt.Errorf("%s: outcome %+v", name, out)
				return
			}
			if _, err := ini.VO.Authority.VerifyMembership(der); err != nil {
				errs <- fmt.Errorf("%s: token: %w", name, err)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < members; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ini.VO.Members()); got != members {
		t.Fatalf("admitted %d of %d", got, members)
	}
}

func TestAuditEndpoint(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	if _, _, err := f.member.Join(bg, "DesignWebPortal"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.srv.URL+"/vo/start-operation", ContentType, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	f.member.Operate(bg, "optimize")   // allowed
	f.member.Operate(bg, "exfiltrate") // violation
	entries, err := f.member.Audit(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("audit = %d entries: %+v", len(entries), entries)
	}
	if !entries[0].Allowed || entries[0].Operation != "optimize" {
		t.Fatalf("entry 0: %+v", entries[0])
	}
	if entries[1].Allowed || entries[1].Operation != "exfiltrate" {
		t.Fatalf("entry 1: %+v", entries[1])
	}
	if entries[0].At.IsZero() {
		t.Fatal("timestamps lost")
	}
}

func TestDoneSessionsRetiredAndDontCountAgainstCapacity(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	f.tk.TN.MaxSessions = 2
	f.tk.TN.DoneRetention = time.Millisecond

	// complete two negotiations; their sessions finish
	for i := 0; i < 2; i++ {
		if _, _, err := f.member.Join(bg, "DesignWebPortal"); err != nil {
			t.Fatal(err)
		}
		f.tk.Initiator.VO.Remove("AerospaceCo")
	}
	time.Sleep(5 * time.Millisecond)
	// finished sessions neither block new ones nor linger past retention
	tn := &TNClient{BaseURL: f.srv.URL, Party: f.member.Party}
	if _, err := tn.Start(bg, "R"); err != nil {
		t.Fatalf("capacity blocked by finished sessions: %v", err)
	}
	if got := f.tk.TN.Sessions(); got != 1 {
		t.Fatalf("sessions after retirement = %d, want 1", got)
	}
}

// TestStatusEscapesSessionID: TNClient.Status asks for the session it
// names, whatever characters its id holds; an unescaped query would ask
// for a shorter id, or for another session.
func TestStatusEscapesSessionID(t *testing.T) {
	svc, _, req := standaloneTN(t)
	ids := []string{"a&negotiation=b", "50%", "%41", "x+y", "v#0", "a b"}
	minted := 0
	svc.NewSessionID = func() (string, error) {
		minted++
		return ids[minted-1], nil
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := &TNClient{BaseURL: srv.URL, Party: req}
	for _, want := range ids {
		id, err := client.Start(bg, "R")
		if err != nil || id != want {
			t.Fatalf("start: %q, %v; want id %q", id, err, want)
		}
		if _, _, _, err := client.Status(bg, id); err != nil {
			t.Errorf("status of session %q: %v", id, err)
		}
	}
}

// decodeResponse interprets an HTTP response body as either a fault or
// the expected root element.
func decodeResponse(resp *http.Response, wantRoot string) (*xmldom.Node, error) {
	defer resp.Body.Close()
	root, err := xmldom.Parse(io.LimitReader(resp.Body, MaxBody))
	if err != nil {
		return nil, fmt.Errorf("wsrpc: bad response (%s): %w", resp.Status, err)
	}
	if root.Name == "fault" {
		f := new(Fault)
		r := xmldom.NewNodeReader(root)
		r.Child(0)
		f.decode(r)
		r.Close()
		return nil, f
	}
	if root.Name != wantRoot {
		return nil, fmt.Errorf("wsrpc: expected <%s> response, got <%s>", wantRoot, root.Name)
	}
	return root, nil
}
