package wsrpc

import (
	"slices"
	"sync"
	"testing"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/partydb"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/store/cacher"
	"trustvo/internal/xtnl"
)

// partyCacheFixture builds a DB-backed TNService whose store holds one
// credential and one policy for the controller.
func partyCacheFixture(t *testing.T) (*TNService, *store.Store) {
	t.Helper()
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
		Profile:  xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(),
		Trust:    pki.NewTrustStore(ca),
	}
	svc := NewTNService(template)
	svc.DB = db
	return svc, db
}

// reloads reads the tn_party_reloads_total counter.
func reloads(s *TNService) int64 {
	return s.Metrics.Counter("tn_party_reloads_total").Value()
}

// TestPartyReloadScopedInvalidation is the regression test for the memo
// key bug: loadPartyCached used to key on the store's GLOBAL generation,
// so every resume-ticket or replicated-session write (which the chaos
// and suspend paths produce constantly) invalidated the memo and forced
// a full re-parse of all credentials and policies. The memo must only
// turn over when a kind the party is built from changes.
func TestPartyReloadScopedInvalidation(t *testing.T) {
	svc, db := partyCacheFixture(t)

	p1, err := svc.loadPartyCached()
	if err != nil {
		t.Fatal(err)
	}
	if got := reloads(svc); got != 1 {
		t.Fatalf("reloads after first load = %d, want 1", got)
	}

	// Writes to kinds the party does NOT read: resume tickets and
	// replicated session documents.
	tkt := &negotiation.ResumeTicket{NegID: "n1", Expires: time.Now().Add(time.Hour)}
	if err := partydb.SaveResumeTicket(db, "AircraftCo", tkt); err != nil {
		t.Fatal(err)
	}
	if err := db.PutXML(KindTNSession, "s1", `<tnSession id="s1"/>`); err != nil {
		t.Fatal(err)
	}

	p2, err := svc.loadPartyCached()
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Error("unrelated-kind writes invalidated the party memo")
	}
	if got := reloads(svc); got != 1 {
		t.Errorf("reloads after unrelated writes = %d, want 1 (no thrash)", got)
	}

	// A write to a party kind must invalidate.
	ca := pki.MustNewAuthority("OtherCA")
	cred := ca.MustIssue(pki.IssueRequest{Type: "AAAMember", Holder: "AircraftCo"})
	if err := db.Put("credential", "AircraftCo/"+cred.ID, cred.DOM()); err != nil {
		t.Fatal(err)
	}
	p3, err := svc.loadPartyCached()
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p2 {
		t.Error("credential write did not invalidate the party memo")
	}
	if got := reloads(svc); got != 2 {
		t.Errorf("reloads after credential write = %d, want 2", got)
	}
}

// TestPartyReloadThroughCache routes the reload through a cacher.Cache
// and checks both that it works and that its invalidation is scoped the
// same way.
func TestPartyReloadThroughCache(t *testing.T) {
	svc, db := partyCacheFixture(t)
	c := cacher.New(db, time.Minute)
	svc.PartyReader = c

	p1, err := svc.loadPartyCached()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Profile.Len() == 0 {
		t.Fatal("cache-routed reload returned an empty profile")
	}
	if st := c.Stats(); st.Misses == 0 {
		t.Fatalf("reload did not go through the cache: %+v", st)
	}

	// Unrelated write: neither the memo nor the party-kind cache slots
	// turn over.
	if err := db.PutXML(KindTNSession, "s1", `<tnSession id="s1"/>`); err != nil {
		t.Fatal(err)
	}
	p2, err := svc.loadPartyCached()
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Error("session write invalidated the cache-routed memo")
	}

	// Party-kind write: memo turns over and the fresh load sees the new
	// record through the cache (the commit observer invalidated it).
	ca := pki.MustNewAuthority("OtherCA")
	cred := ca.MustIssue(pki.IssueRequest{Type: "AAAMember", Holder: "AircraftCo"})
	if err := db.Put("credential", "AircraftCo/"+cred.ID, cred.DOM()); err != nil {
		t.Fatal(err)
	}
	p3, err := svc.loadPartyCached()
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p2 {
		t.Fatal("credential write did not invalidate the cache-routed memo")
	}
	if p3.Profile.Len() != p2.Profile.Len()+1 {
		t.Errorf("reloaded profile has %d credentials, want %d (stale cache?)",
			p3.Profile.Len(), p2.Profile.Len()+1)
	}
}

// TestSessionsStartWhilePoliciesChange starts sessions from four
// goroutines while a fifth rewrites the controller's policy. Every
// session must start from a whole party, bound to the service registry,
// holding one of the two policies written, and no later reload may
// change a party a session already holds.
func TestSessionsStartWhilePoliciesChange(t *testing.T) {
	svc, db := partyCacheFixture(t)
	versions := []string{"AAAMember", "ISOCert"}
	write := func(i int) {
		pol := xtnl.MustParsePolicies("Certification <- " + versions[i%2])[0]
		if err := db.Put(partydb.KindPolicy, "AircraftCo/pol-0", pol.DOM()); err != nil {
			t.Error(err)
		}
	}
	type held struct {
		party *negotiation.Party
		cred  string
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				write(i)
			}
		}
	}()
	seen := make([][]held, 4)
	var starters sync.WaitGroup
	for g := range seen {
		starters.Add(1)
		go func() {
			defer starters.Done()
			for range 200 { // 800 sessions, within the default MaxSessions
				if _, err := svc.newSession(); err != nil {
					t.Error(err)
					return
				}
				p, err := svc.sessionParty()
				if err != nil {
					t.Error(err)
					return
				}
				alts := p.Policies.For("Certification")
				if p.Metrics != svc.Metrics || p.Profile.Len() != 1 || len(alts) != 1 || !slices.Contains(versions, alts[0].Terms[0].CredType) {
					t.Errorf("session party: metrics bound %t, %d credentials, alternatives %v",
						p.Metrics == svc.Metrics, p.Profile.Len(), alts)
					return
				}
				seen[g] = append(seen[g], held{p, alts[0].Terms[0].CredType})
			}
		}()
	}
	starters.Wait()
	close(done)
	wg.Wait()
	for _, hs := range seen {
		for _, h := range hs {
			if got := h.party.Policies.For("Certification")[0].Terms[0].CredType; got != h.cred {
				t.Fatalf("a reload changed a held party's policy from %s to %s", h.cred, got)
			}
		}
	}
	if reloads(svc) < 2 {
		t.Errorf("reloads = %d: the writes never reached a session start", reloads(svc))
	}
}
