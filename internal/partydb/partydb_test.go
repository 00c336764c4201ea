package partydb

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/ontology"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/xtnl"
)

func fixtureParty(t testing.TB) (*negotiation.Party, *pki.Authority) {
	t.Helper()
	ca := pki.MustNewAuthority("CertCA")
	prof := xtnl.NewProfile("AerospaceCo")
	prof.Add(
		ca.MustIssue(pki.IssueRequest{
			Type: "WebDesignerQuality", Holder: "AerospaceCo",
			Attributes: []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}},
		}),
		ca.MustIssue(pki.IssueRequest{Type: "AAAMember", Holder: "AerospaceCo"}),
	)
	o := ontology.New()
	o.MustAdd(&ontology.Concept{Name: "quality-certification",
		Implementations: []ontology.Implementation{{CredType: "WebDesignerQuality"}}})
	return &negotiation.Party{
		Name:     "AerospaceCo",
		Profile:  prof,
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies("WebDesignerQuality <- AAAccreditation")...),
		Trust:    pki.NewTrustStore(ca),
		Mapper:   &ontology.Mapper{Ontology: o, Profile: prof},
	}, ca
}

func TestSaveLoadPartyRoundTrip(t *testing.T) {
	p, ca := fixtureParty(t)
	db := store.New()
	if err := SaveParty(db, p); err != nil {
		t.Fatal(err)
	}
	re, err := LoadParty(db, &negotiation.Party{Name: "AerospaceCo", Trust: p.Trust})
	if err != nil {
		t.Fatal(err)
	}
	if re.Profile.Len() != 2 {
		t.Fatalf("profile = %d credentials", re.Profile.Len())
	}
	if re.Policies.Len() != 1 {
		t.Fatalf("policies = %d", re.Policies.Len())
	}
	if re.Mapper == nil || re.Mapper.Ontology.Len() != 1 {
		t.Fatal("ontology lost")
	}
	// reloaded credentials still verify (signature survived storage)
	for _, c := range re.Profile.All() {
		if err := pki.NewTrustStore(ca).Verify(c, time.Now()); err != nil {
			t.Fatalf("credential %s: %v", c.ID, err)
		}
	}
	// and the reloaded party can still negotiate
	ctl := &negotiation.Party{
		Name:    "AircraftCo",
		Profile: xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(
			"R <- WebDesignerQuality(regulation='UNI EN ISO 9000')")...),
		Trust: pki.NewTrustStore(ca),
	}
	ctl.Profile.Add(ca.MustIssue(pki.IssueRequest{Type: "AAAccreditation", Holder: "AircraftCo"}))
	out, _, err := negotiation.Run(re, ctl, "R")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Succeeded {
		t.Fatalf("negotiation with reloaded party failed: %s", out.Reason)
	}
}

func TestOwnersIsolated(t *testing.T) {
	db := store.New()
	ca := pki.MustNewAuthority("CA")
	for _, owner := range []string{"a", "b", "a/x"} {
		p := xtnl.NewProfile(owner)
		p.Add(ca.MustIssue(pki.IssueRequest{Type: "T-" + owner, Holder: owner}))
		err := SaveProfile(db, p)
		if owner == "a/x" && (err == nil || !strings.Contains(err.Error(), `"a/x"`)) {
			t.Errorf("saving owner a/x: %v, want an error naming it", err)
		} else if owner != "a/x" && err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadProfile(db, "a/x"); err == nil {
		t.Error("loading owner a/x succeeded")
	}
	a, err := LoadProfile(db, "a")
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 1 || a.All()[0].Type != "T-a" {
		t.Fatalf("owner isolation broken: %+v", a.All())
	}
	empty, err := LoadProfile(db, "nobody")
	if err != nil || empty.Len() != 0 {
		t.Fatalf("unknown owner: %d creds, %v", empty.Len(), err)
	}
}

func TestPoliciesProtecting(t *testing.T) {
	db := store.New()
	ps := xtnl.MustPolicySet(xtnl.MustParsePolicies(`
R1 <- A | B
R2 <- C
`)...)
	if err := SavePolicies(db, "owner", ps); err != nil {
		t.Fatal(err)
	}
	got, err := PoliciesProtecting(db, "owner", "R1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("R1 alternatives = %d", len(got))
	}
	got, err = PoliciesProtecting(db, "owner", "R3")
	if err != nil || len(got) != 0 {
		t.Fatalf("unknown resource: %d, %v", len(got), err)
	}
}

func TestSaveProfileRequiresIDs(t *testing.T) {
	db := store.New()
	p := xtnl.NewProfile("x")
	p.Add(&xtnl.Credential{Type: "T"}) // no ID
	if err := SaveProfile(db, p); err == nil {
		t.Fatal("ID-less credential accepted")
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "party.wal")
	db, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := fixtureParty(t)
	if err := SaveParty(db, p); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	re, err := LoadParty(db2, &negotiation.Party{Name: "AerospaceCo"})
	if err != nil {
		t.Fatal(err)
	}
	if re.Profile.Len() != 2 || re.Policies.Len() != 1 {
		t.Fatalf("state lost across reopen: %d creds, %d policies", re.Profile.Len(), re.Policies.Len())
	}
}

// TestDurableSurvivesUncleanShutdown saves a party and a resume ticket
// through a durable store and reopens the path WITHOUT closing the
// first handle — the process-died case. Every acknowledged write must
// come back: SaveResumeTicket syncs before it returns, so a client that
// persists its resume ticket through it and then dies can still resume
// the negotiation on its next run. (tnserve persists its own suspended
// sessions separately, through TNService.SuspendSessions.)
func TestDurableSurvivesUncleanShutdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "party.wal")
	db, err := store.OpenDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := fixtureParty(t)
	if err := SaveParty(db, p); err != nil {
		t.Fatal(err)
	}
	ticket := &negotiation.ResumeTicket{
		NegID:    "neg-42",
		Resource: "DesignPortal",
		Seq:      3,
		Expires:  time.Now().Add(time.Hour).UTC().Truncate(time.Second),
	}
	if err := SaveResumeTicket(db, "AerospaceCo", ticket); err != nil {
		t.Fatal(err)
	}
	// no db.Close(): recovery must work from what fsync already made
	// durable, not from a clean shutdown path.

	db2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	re, err := LoadParty(db2, &negotiation.Party{Name: "AerospaceCo"})
	if err != nil {
		t.Fatal(err)
	}
	if re.Profile.Len() != 2 || re.Policies.Len() != 1 {
		t.Fatalf("acked party state lost: %d creds, %d policies", re.Profile.Len(), re.Policies.Len())
	}
	tickets, err := LoadResumeTickets(db2, "AerospaceCo", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(tickets) != 1 || tickets[0].NegID != "neg-42" || tickets[0].Seq != 3 {
		t.Fatalf("resume ticket lost or corrupt: %+v", tickets)
	}
	db.Close()
}

// TestSaveDropsRecordsThePartyNoLongerHolds: a server saves its party
// at every start. A policy, credential or ontology the operator removed
// since the last start must not come back from the store.
func TestSaveDropsRecordsThePartyNoLongerHolds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "party.wal")
	ca := pki.MustNewAuthority("CA")
	party := func(policies string, creds ...string) *negotiation.Party {
		prof := xtnl.NewProfile("Owner")
		for _, typ := range creds {
			prof.Add(ca.MustIssue(pki.IssueRequest{Type: typ, Holder: "Owner"}))
		}
		return &negotiation.Party{
			Name: "Owner", Profile: prof,
			Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(policies)...),
		}
	}
	save := func(p *negotiation.Party) {
		t.Helper()
		db, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := SaveParty(db, p); err != nil {
			t.Fatal(err)
		}
	}
	full := party("Report <- Badge\nSecret <- DELIV", "Badge", "Secret")
	o := ontology.New()
	o.MustAdd(&ontology.Concept{Name: "badge", Implementations: []ontology.Implementation{{CredType: "Badge"}}})
	full.Mapper = &ontology.Mapper{Ontology: o, Profile: full.Profile}
	save(full)
	save(party("Report <- Badge", "Badge"))

	db, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	re, err := LoadParty(db, &negotiation.Party{Name: "Owner"})
	if err != nil {
		t.Fatal(err)
	}
	if re.Policies.Len() != 1 || len(re.Policies.For("Secret")) != 0 {
		t.Errorf("policies after the second save: %d, Secret rules %d; want 1 and 0", re.Policies.Len(), len(re.Policies.For("Secret")))
	}
	if re.Profile.Len() != 1 || len(re.Profile.ByType("Secret")) != 0 {
		t.Errorf("credentials after the second save: %d, want only the Badge", re.Profile.Len())
	}
	if re.Mapper != nil {
		t.Error("the removed ontology came back")
	}
}

func TestLoadOntologyAbsent(t *testing.T) {
	db := store.New()
	o, err := LoadOntology(db, "nobody")
	if err != nil || o != nil {
		t.Fatalf("absent ontology: %v, %v", o, err)
	}
}
