package negotiation

import (
	"slices"
	"strings"
	"testing"
	"time"

	"trustvo/internal/ontology"
	"trustvo/internal/pki"
	"trustvo/internal/xtnl"
)

// fixture builds the §5.1 formation scenario: the Aerospace company
// requests a VoMembership from the Aircraft company.
//
//	AircraftCo policy:  VoMembership <- WebDesignerQuality(regulation='UNI EN ISO 9000')
//	AerospaceCo policy: WebDesignerQuality <- AAAccreditation | BalanceSheet(issuer='BBB')
//	AircraftCo holds an unprotected AAAccreditation credential.
type fixture struct {
	qualityCA *pki.Authority // issues WebDesignerQuality
	aaaCA     *pki.Authority // issues AAAccreditation (the "American Aircraft associations")
	bbbCA     *pki.Authority // issues BalanceSheet certifications

	aerospace *Party
	aircraft  *Party

	aerospaceKeys *pki.KeyPair
	aircraftKeys  *pki.KeyPair

	wdqCred *xtnl.Credential // aerospace's quality credential
	aaaCred *xtnl.Credential // aircraft's accreditation
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	f := &fixture{
		qualityCA:     pki.MustNewAuthority("QualityCA"),
		aaaCA:         pki.MustNewAuthority("AAA"),
		bbbCA:         pki.MustNewAuthority("BBB"),
		aerospaceKeys: pki.MustGenerateKeyPair(),
		aircraftKeys:  pki.MustGenerateKeyPair(),
	}
	f.wdqCred = f.qualityCA.MustIssue(pki.IssueRequest{
		Type:        "WebDesignerQuality",
		Holder:      "AerospaceCo",
		HolderKey:   f.aerospaceKeys.Public,
		Sensitivity: xtnl.SensitivityMedium,
		Attributes:  []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}},
	})
	f.aaaCred = f.aaaCA.MustIssue(pki.IssueRequest{
		Type:        "AAAccreditation",
		Holder:      "AircraftCo",
		HolderKey:   f.aircraftKeys.Public,
		Sensitivity: xtnl.SensitivityLow,
	})

	aeroProfile := xtnl.NewProfile("AerospaceCo")
	aeroProfile.Add(f.wdqCred)
	f.aerospace = &Party{
		Name:    "AerospaceCo",
		Profile: aeroProfile,
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(
			"WebDesignerQuality <- AAAccreditation | BalanceSheet(issuer='BBB')",
		)...),
		Trust: pki.NewTrustStore(f.qualityCA, f.aaaCA, f.bbbCA),
		Keys:  f.aerospaceKeys,
	}

	airProfile := xtnl.NewProfile("AircraftCo")
	airProfile.Add(f.aaaCred)
	f.aircraft = &Party{
		Name:    "AircraftCo",
		Profile: airProfile,
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(
			"VoMembership <- WebDesignerQuality(regulation='UNI EN ISO 9000')",
		)...),
		Trust: pki.NewTrustStore(f.qualityCA, f.aaaCA, f.bbbCA),
		Keys:  f.aircraftKeys,
		Grant: func(resource, peer string) ([]byte, error) {
			return []byte("membership:" + peer), nil
		},
	}
	return f
}

func TestStandardNegotiationSuccess(t *testing.T) {
	f := newFixture(t)
	reqOut, ctlOut, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !reqOut.Succeeded || !ctlOut.Succeeded {
		t.Fatalf("outcomes: req=%+v ctl=%+v", reqOut, ctlOut)
	}
	if string(reqOut.Grant) != "membership:AerospaceCo" {
		t.Fatalf("grant = %q", reqOut.Grant)
	}
	// The controller received the quality credential, the requester the
	// accreditation, per the Fig. 2 trust sequence.
	if len(ctlOut.Received) != 1 || ctlOut.Received[0].Credential.Type != "WebDesignerQuality" {
		t.Fatalf("controller received: %+v", ctlOut.Received)
	}
	if len(reqOut.Received) != 1 || reqOut.Received[0].Credential.Type != "AAAccreditation" {
		t.Fatalf("requester received: %+v", reqOut.Received)
	}
	if reqOut.Rounds == 0 || ctlOut.Rounds == 0 {
		t.Fatal("rounds not counted")
	}
}

func TestDelivResource(t *testing.T) {
	f := newFixture(t)
	f.aircraft.Policies = xtnl.MustPolicySet(xtnl.MustParsePolicies("PublicCatalog <- DELIV")...)
	reqOut, ctlOut, err := Run(f.aerospace, f.aircraft, "PublicCatalog")
	if err != nil {
		t.Fatal(err)
	}
	if !reqOut.Succeeded || !ctlOut.Succeeded {
		t.Fatalf("DELIV should grant immediately: %+v", reqOut)
	}
	if len(ctlOut.Received) != 0 {
		t.Fatalf("no credentials should flow for DELIV: %+v", ctlOut.Received)
	}
}

func TestResourceNotOffered(t *testing.T) {
	f := newFixture(t)
	reqOut, _, err := Run(f.aerospace, f.aircraft, "SomethingElse")
	if err != nil {
		t.Fatal(err)
	}
	if reqOut.Succeeded {
		t.Fatal("unoffered resource granted")
	}
	if !strings.Contains(reqOut.Reason, "not offered") {
		t.Fatalf("reason = %q", reqOut.Reason)
	}
}

func TestRequesterLacksCredential(t *testing.T) {
	f := newFixture(t)
	f.aerospace.Profile = xtnl.NewProfile("AerospaceCo") // empty
	reqOut, ctlOut, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if reqOut.Succeeded || ctlOut.Succeeded {
		t.Fatal("negotiation should fail without the quality credential")
	}
	if !strings.Contains(ctlOut.Reason, "no satisfiable view") && !strings.Contains(reqOut.Reason, "no satisfiable view") {
		t.Fatalf("reasons: req=%q ctl=%q", reqOut.Reason, ctlOut.Reason)
	}
}

func TestAlternativeFallback(t *testing.T) {
	// The aircraft company lacks the AAA accreditation but holds a
	// balance sheet from BBB: the second alternative edge of Fig. 2.
	f := newFixture(t)
	balance := f.bbbCA.MustIssue(pki.IssueRequest{
		Type: "BalanceSheet", Holder: "AircraftCo",
		Attributes: []xtnl.Attribute{{Name: "year", Value: "2009"}},
	})
	prof := xtnl.NewProfile("AircraftCo")
	prof.Add(balance)
	f.aircraft.Profile = prof
	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !reqOut.Succeeded {
		t.Fatalf("alternative branch should succeed: %s", reqOut.Reason)
	}
	if len(reqOut.Received) != 1 || reqOut.Received[0].Credential.Type != "BalanceSheet" {
		t.Fatalf("requester received: %+v", reqOut.Received)
	}
}

func TestConditionNarrowsAlternative(t *testing.T) {
	// A balance sheet from the wrong issuer fails the issuer='BBB'
	// condition, so neither alternative works.
	f := newFixture(t)
	wrongIssuer := f.qualityCA.MustIssue(pki.IssueRequest{Type: "BalanceSheet", Holder: "AircraftCo"})
	prof := xtnl.NewProfile("AircraftCo")
	prof.Add(wrongIssuer)
	f.aircraft.Profile = prof
	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if reqOut.Succeeded {
		t.Fatal("wrong-issuer balance sheet should not satisfy the condition")
	}
}

func TestRevokedCredentialFailsNegotiation(t *testing.T) {
	// §4.2: "if a party uses a revoked certificate, the negotiation fails".
	f := newFixture(t)
	f.qualityCA.Revoke(f.wdqCred.ID)
	if err := f.aircraft.Trust.AddCRL(f.qualityCA.CRL()); err != nil {
		t.Fatal(err)
	}
	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if reqOut.Succeeded {
		t.Fatal("revoked credential accepted")
	}
	if !strings.Contains(reqOut.Reason, "revoked") {
		t.Fatalf("reason = %q", reqOut.Reason)
	}
}

func TestExpiredCredentialFailsNegotiation(t *testing.T) {
	f := newFixture(t)
	expired := f.qualityCA.MustIssue(pki.IssueRequest{
		Type:       "WebDesignerQuality",
		Holder:     "AerospaceCo",
		ValidFrom:  time.Now().Add(-48 * time.Hour),
		Lifetime:   time.Hour,
		Attributes: []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}},
	})
	prof := xtnl.NewProfile("AerospaceCo")
	prof.Add(expired)
	f.aerospace.Profile = prof
	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if reqOut.Succeeded {
		t.Fatal("expired credential accepted")
	}
	if !strings.Contains(reqOut.Reason, "validity") {
		t.Fatalf("reason = %q", reqOut.Reason)
	}
}

func TestTrustingStrategyFewerRounds(t *testing.T) {
	std := newFixture(t)
	stdReq, _, err := Run(std.aerospace, std.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}

	tru := newFixture(t)
	tru.aerospace.Strategy = Trusting
	tru.aircraft.Strategy = Trusting
	truReq, _, err := Run(tru.aerospace, tru.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !truReq.Succeeded {
		t.Fatalf("trusting negotiation failed: %s", truReq.Reason)
	}
	if truReq.Rounds >= stdReq.Rounds {
		t.Fatalf("trusting should use fewer rounds: trusting=%d standard=%d", truReq.Rounds, stdReq.Rounds)
	}
}

func TestDeeperPolicyChain(t *testing.T) {
	// Aircraft protects its AAAccreditation behind a further requirement
	// (the aerospace company's privacy-regulator certification),
	// exercising a three-level chain.
	f := newFixture(t)
	privacy := f.qualityCA.MustIssue(pki.IssueRequest{
		Type: "PrivacyRegulator", Holder: "AerospaceCo", Sensitivity: xtnl.SensitivityLow,
	})
	f.aerospace.Profile.Add(privacy)
	f.aircraft.Policies = xtnl.MustPolicySet(xtnl.MustParsePolicies(`
VoMembership <- WebDesignerQuality(regulation='UNI EN ISO 9000')
AAAccreditation <- PrivacyRegulator
`)...)
	reqOut, ctlOut, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !reqOut.Succeeded {
		t.Fatalf("chain negotiation failed: %s", reqOut.Reason)
	}
	// The controller received both the privacy cert and the quality cert.
	types := map[string]bool{}
	for _, d := range ctlOut.Received {
		types[d.Credential.Type] = true
	}
	if !types["PrivacyRegulator"] || !types["WebDesignerQuality"] {
		t.Fatalf("controller received %v", types)
	}
}

func TestMutualRequirementResolved(t *testing.T) {
	// X <- Y and Y <- X with both credentials held: the interlocking
	// requirements resolve by mutual commitment — the engine complies on
	// the repeated requirement instead of looping or failing (the §5.1
	// "PrivacyRegulator ← PrivacyRegulator" pattern).
	f := newFixture(t)
	f.aerospace.Policies = xtnl.MustPolicySet(xtnl.MustParsePolicies(
		"WebDesignerQuality <- AAAccreditation",
	)...)
	f.aircraft.Policies = xtnl.MustPolicySet(xtnl.MustParsePolicies(`
VoMembership <- WebDesignerQuality(regulation='UNI EN ISO 9000')
AAAccreditation <- WebDesignerQuality(regulation='UNI EN ISO 9000')
`)...)
	reqOut, ctlOut, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !reqOut.Succeeded {
		t.Fatalf("mutual requirement should resolve: %s", reqOut.Reason)
	}
	// each side disclosed its credential exactly once
	if len(reqOut.Sent) != 1 || len(ctlOut.Sent) != 1 {
		t.Fatalf("disclosures: req sent %d, ctl sent %d", len(reqOut.Sent), len(ctlOut.Sent))
	}
}

func TestMutualRequirementFailsWhenCredentialMissing(t *testing.T) {
	// The same interlock fails when one side cannot actually produce the
	// credential: commitment semantics never invent disclosures.
	f := newFixture(t)
	f.aerospace.Policies = xtnl.MustPolicySet(xtnl.MustParsePolicies(
		"WebDesignerQuality <- AAAccreditation",
	)...)
	f.aircraft.Profile = xtnl.NewProfile("AircraftCo") // AAA credential gone
	f.aircraft.Policies = xtnl.MustPolicySet(xtnl.MustParsePolicies(`
VoMembership <- WebDesignerQuality(regulation='UNI EN ISO 9000')
AAAccreditation <- WebDesignerQuality(regulation='UNI EN ISO 9000')
`)...)
	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if reqOut.Succeeded {
		t.Fatal("interlock without the credential should fail")
	}
}

// TestPrivacyRegulatorMutualExample reproduces the paper's §5.1
// operational-phase example verbatim: "the policies to be satisfied are:
// Certification() ← PrivacyRegulator() and PrivacyRegulator() ←
// PrivacyRegulator() in response to the Aircraft Company one" — both
// parties prove privacy compliance to each other.
func TestPrivacyRegulatorMutualExample(t *testing.T) {
	f := newFixture(t)
	prA := f.qualityCA.MustIssue(pki.IssueRequest{Type: "PrivacyRegulator", Holder: "AerospaceCo"})
	prB := f.qualityCA.MustIssue(pki.IssueRequest{Type: "PrivacyRegulator", Holder: "AircraftCo"})
	f.aerospace.Profile.Add(prA)
	f.aircraft.Profile.Add(prB)
	// The aerospace company (controller of the certification) protects
	// it behind the privacy requirement; each party protects its own
	// PrivacyRegulator behind the counterpart's.
	f.aerospace.Policies = xtnl.MustPolicySet(xtnl.MustParsePolicies(`
Certification <- PrivacyRegulator
PrivacyRegulator <- PrivacyRegulator
`)...)
	f.aircraft.Policies = xtnl.MustPolicySet(xtnl.MustParsePolicies(
		"PrivacyRegulator <- PrivacyRegulator")...)
	f.aerospace.Grant = func(resource, peer string) ([]byte, error) {
		return []byte("certification-still-valid"), nil
	}
	out, ctlOut, err := Run(f.aircraft, f.aerospace, "Certification")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Succeeded {
		t.Fatalf("§5.1 mutual privacy example failed: %s", out.Reason)
	}
	// both privacy certificates were exchanged
	if len(out.Received) != 1 || out.Received[0].Credential.Type != "PrivacyRegulator" {
		t.Fatalf("requester received: %+v", out.Received)
	}
	if len(ctlOut.Received) != 1 || ctlOut.Received[0].Credential.Type != "PrivacyRegulator" {
		t.Fatalf("controller received: %+v", ctlOut.Received)
	}
}

func TestRoundLimit(t *testing.T) {
	f := newFixture(t)
	f.aircraft.MaxRounds = 2
	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if reqOut.Succeeded {
		t.Fatal("round-limited negotiation should fail")
	}
	if !strings.Contains(reqOut.Reason, "round limit") {
		t.Fatalf("reason = %q", reqOut.Reason)
	}
}

func TestDelegationChainDisclosure(t *testing.T) {
	// The quality credential's issuer is unknown to the aircraft company
	// but a delegation credential from a common root bridges the gap
	// (§4.2: retrieving credentials "through credentials chains").
	f := newFixture(t)
	root := pki.MustNewAuthority("RootCA")
	delegation, err := root.Delegate(f.qualityCA, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	f.aircraft.Trust = pki.NewTrustStore(root, f.aaaCA, f.bbbCA) // QualityCA NOT a direct root
	f.aerospace.Chains = []*xtnl.Credential{delegation}
	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !reqOut.Succeeded {
		t.Fatalf("chained-issuer negotiation failed: %s", reqOut.Reason)
	}
}

func suspiciousFixture(t testing.TB) *fixture {
	f := newFixture(t)
	// The aerospace company's quality credential must support selective
	// disclosure for the suspicious strategy (§6.3).
	sc, err := f.qualityCA.IssueSelective(pki.IssueRequest{
		Type:        "WebDesignerQuality",
		Holder:      "AerospaceCo",
		HolderKey:   f.aerospaceKeys.Public,
		Sensitivity: xtnl.SensitivityMedium,
		Attributes: []xtnl.Attribute{
			{Name: "regulation", Value: "UNI EN ISO 9000"},
			{Name: "auditReport", Value: "CONFIDENTIAL-2009"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := xtnl.NewProfile("AerospaceCo")
	f.aerospace.Profile = prof // plain credential removed
	f.aerospace.Selective = map[string]*pki.SelectiveCredential{sc.Committed.ID: sc}
	f.aerospace.Strategy = Suspicious
	return f
}

func TestSuspiciousSelectiveDisclosure(t *testing.T) {
	f := suspiciousFixture(t)
	reqOut, ctlOut, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !reqOut.Succeeded {
		t.Fatalf("suspicious negotiation failed: %s", reqOut.Reason)
	}
	// The controller saw only the attribute its condition references;
	// the confidential audit report stayed hidden.
	if len(ctlOut.Received) != 1 {
		t.Fatalf("controller received %d credentials", len(ctlOut.Received))
	}
	view := ctlOut.Received[0].Credential
	if v, ok := view.Attr("regulation"); !ok || v != "UNI EN ISO 9000" {
		t.Fatalf("regulation not opened: %+v", view.Attributes)
	}
	if _, ok := view.Attr("auditReport"); ok {
		t.Fatal("confidential attribute leaked under suspicious strategy")
	}
}

// TestSuspiciousOpensOnlyWhatConditionsRead: a suspicious discloser
// opens the attributes its counterpart's conditions read and no other.
// The names used to come from scanning the condition text for
// "content/", so a string literal opened the attribute it spelled, and a
// condition on the header opened every attribute.
func TestSuspiciousOpensOnlyWhatConditionsRead(t *testing.T) {
	for _, c := range []struct {
		policy string
		opened []string
	}{
		{"VoMembership <- WebDesignerQuality[/credential/content/regulation != 'content/auditReport']", []string{"regulation"}},
		{"VoMembership <- WebDesignerQuality(issuer='QualityCA')[content/regulation = 'UNI EN ISO 9000']", []string{"regulation"}},
		{"VoMembership <- WebDesignerQuality(issuer='QualityCA')", nil},
		// A wildcard may read any attribute, so every one opens.
		{"VoMembership <- WebDesignerQuality[count(/credential/content/*) = 2]", []string{"regulation", "auditReport"}},
	} {
		f := suspiciousFixture(t)
		f.aircraft.Policies = xtnl.MustPolicySet(xtnl.MustParsePolicies(c.policy)...)
		reqOut, ctlOut, err := Run(f.aerospace, f.aircraft, "VoMembership")
		if err != nil {
			t.Fatal(err)
		}
		if !reqOut.Succeeded || len(ctlOut.Received) != 1 {
			t.Fatalf("%s: negotiation failed: %s", c.policy, reqOut.Reason)
		}
		var opened []string
		for _, a := range ctlOut.Received[0].Credential.Attributes {
			opened = append(opened, a.Name)
		}
		if !slices.Equal(opened, c.opened) {
			t.Errorf("%s: opened %v, want %v", c.policy, opened, c.opened)
		}
	}
}

func TestSuspiciousWithoutSelectiveFails(t *testing.T) {
	// §6.3: plain (X.509-style) credentials cannot partially hide their
	// content, so suspicious strategies are unusable with them.
	f := newFixture(t)
	f.aerospace.Strategy = Suspicious
	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if reqOut.Succeeded {
		t.Fatal("suspicious strategy with plain credentials should fail")
	}
	if !strings.Contains(reqOut.Reason, "selective disclosure") {
		t.Fatalf("reason = %q", reqOut.Reason)
	}
}

func TestSuspiciousOwnershipProofEnforced(t *testing.T) {
	// The controller's accreditation lacks a holder key, so it cannot
	// prove ownership to the suspicious requester.
	f := suspiciousFixture(t)
	noKey := f.aaaCA.MustIssue(pki.IssueRequest{Type: "AAAccreditation", Holder: "AircraftCo"})
	prof := xtnl.NewProfile("AircraftCo")
	prof.Add(noKey)
	f.aircraft.Profile = prof
	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if reqOut.Succeeded {
		t.Fatal("credential without ownership proof accepted by suspicious party")
	}
	if !strings.Contains(reqOut.Reason, "ownership") {
		t.Fatalf("reason = %q", reqOut.Reason)
	}
}

func TestStrongSuspiciousPacing(t *testing.T) {
	std := suspiciousFixture(t)
	stdReq, _, err := Run(std.aerospace, std.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !stdReq.Succeeded {
		t.Fatalf("baseline suspicious run failed: %s", stdReq.Reason)
	}

	ss := suspiciousFixture(t)
	ss.aerospace.Strategy = StrongSuspicious
	ssReq, _, err := Run(ss.aerospace, ss.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !ssReq.Succeeded {
		t.Fatalf("strong-suspicious run failed: %s", ssReq.Reason)
	}
	if ssReq.Rounds < stdReq.Rounds {
		t.Fatalf("strong suspicious should not use fewer rounds: %d vs %d", ssReq.Rounds, stdReq.Rounds)
	}
}

func TestConceptLevelNegotiation(t *testing.T) {
	// §4.3: the aircraft company abstracts its policy to the
	// quality-certification concept; the aerospace company's local
	// naming differs (it holds an "ISO 9000 Certified" credential) but
	// Algorithm 1 maps the concept onto it.
	f := newFixture(t)

	refOntology := func() *ontology.Ontology {
		o := ontology.New()
		o.MustAdd(&ontology.Concept{
			Name:       "quality-certification",
			Attributes: []string{"regulation"},
			Implementations: []ontology.Implementation{
				{CredType: "WebDesignerQuality"},
				{CredType: "ISO 9000 Certified"},
			},
		})
		return o
	}

	iso := f.qualityCA.MustIssue(pki.IssueRequest{
		Type:        "ISO 9000 Certified",
		Holder:      "AerospaceCo",
		Sensitivity: xtnl.SensitivityLow,
		Attributes:  []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}},
	})
	aeroProf := xtnl.NewProfile("AerospaceCo")
	aeroProf.Add(iso)
	f.aerospace.Profile = aeroProf
	f.aerospace.Policies = xtnl.MustPolicySet() // ISO credential unprotected
	f.aerospace.Mapper = &ontology.Mapper{Ontology: refOntology(), Profile: aeroProf}

	f.aircraft.Mapper = &ontology.Mapper{Ontology: refOntology(), Profile: f.aircraft.Profile}
	f.aircraft.AbstractLevels = 1

	reqOut, ctlOut, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !reqOut.Succeeded {
		t.Fatalf("concept-level negotiation failed: %s", reqOut.Reason)
	}
	if len(ctlOut.Received) != 1 || ctlOut.Received[0].Credential.Type != "ISO 9000 Certified" {
		t.Fatalf("controller received %+v", ctlOut.Received)
	}
}

func TestConceptNegotiationWithoutOntologyFails(t *testing.T) {
	f := newFixture(t)
	o := ontology.New()
	o.MustAdd(&ontology.Concept{
		Name:            "quality-certification",
		Attributes:      []string{"regulation"},
		Implementations: []ontology.Implementation{{CredType: "WebDesignerQuality"}},
	})
	f.aircraft.Mapper = &ontology.Mapper{Ontology: o, Profile: f.aircraft.Profile}
	f.aircraft.AbstractLevels = 1
	// aerospace has no mapper: it cannot interpret concept-level terms
	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if reqOut.Succeeded {
		t.Fatal("concept term resolved without an ontology")
	}
}

func TestOutcomeSentRecorded(t *testing.T) {
	f := newFixture(t)
	reqOut, ctlOut, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if len(reqOut.Sent) != 1 || reqOut.Sent[0].Credential.Type != "WebDesignerQuality" {
		t.Fatalf("requester sent: %+v", reqOut.Sent)
	}
	if len(ctlOut.Sent) != 1 || ctlOut.Sent[0].Credential.Type != "AAAccreditation" {
		t.Fatalf("controller sent: %+v", ctlOut.Sent)
	}
}

func TestEndpointMisuse(t *testing.T) {
	f := newFixture(t)
	ct := NewController(f.aircraft)
	if _, err := ct.Start(); err == nil {
		t.Fatal("controller Start should error")
	}
	rq := NewRequester(f.aerospace, "R")
	if _, err := rq.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := rq.Start(); err == nil {
		t.Fatal("double Start should error")
	}
	// handling a message after done errors
	reply, err := ct.Handle(&Message{Type: MsgFail, From: "x", Reason: "stop"})
	if err != nil || reply != nil {
		t.Fatalf("terminal handle: %v %v", reply, err)
	}
	if _, err := ct.Handle(&Message{Type: MsgAck}); err == nil {
		t.Fatal("handle after done should error")
	}
}

func TestMessagesSurviveWireRoundTrip(t *testing.T) {
	// Drive the full standard negotiation with every message re-encoded
	// through the XML wire format, as the web service transport does.
	f := newFixture(t)
	rq := NewRequester(f.aerospace, "VoMembership")
	ct := NewController(f.aircraft)
	msg, err := rq.Start()
	if err != nil {
		t.Fatal(err)
	}
	to := ct
	for msg != nil {
		decoded, err := ParseMessage(msg.XML())
		if err != nil {
			t.Fatalf("wire round trip of %s: %v", msg.Summary(), err)
		}
		reply, err := to.Handle(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if to == ct {
			to = rq
		} else {
			to = ct
		}
		msg = reply
	}
	if !rq.Done() || !ct.Done() {
		t.Fatal("negotiation did not finish")
	}
	if !rq.Outcome().Succeeded {
		t.Fatalf("wire negotiation failed: %s", rq.Outcome().Reason)
	}
}

// ---- benchmarks (EXT-1/2/3) ----

// chainFixture builds a negotiation whose policy chain has the given
// depth: each level's credential is protected by the next requirement,
// alternating between the parties.
func chainFixture(b *testing.B, depth int) (*Party, *Party) {
	ca := pki.MustNewAuthority("CA")
	reqProf := xtnl.NewProfile("REQ")
	ctlProf := xtnl.NewProfile("CTL")
	var reqRules, ctlRules []string
	ctlRules = append(ctlRules, "Resource <- Cred0")
	for i := 0; i < depth; i++ {
		holder, prof := "REQ", reqProf
		rules := &reqRules
		if i%2 == 1 {
			holder, prof, rules = "CTL", ctlProf, &ctlRules
		}
		name := credName(i)
		prof.Add(ca.MustIssue(pki.IssueRequest{Type: name, Holder: holder}))
		if i+1 < depth {
			*rules = append(*rules, name+" <- "+credName(i+1))
		}
	}
	trust := func() *pki.TrustStore { return pki.NewTrustStore(ca) }
	req := &Party{Name: "REQ", Profile: reqProf,
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(joinLines(reqRules))...), Trust: trust()}
	ctl := &Party{Name: "CTL", Profile: ctlProf,
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(joinLines(ctlRules))...), Trust: trust()}
	return req, ctl
}

func credName(i int) string { return "Cred" + string(rune('0'+i)) }

func joinLines(ss []string) string { return strings.Join(ss, "\n") }

func benchmarkDepth(b *testing.B, depth int) {
	req, ctl := chainFixture(b, depth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := Run(req, ctl, "Resource")
		if err != nil || !out.Succeeded {
			b.Fatalf("negotiation failed: %v %+v", err, out)
		}
	}
}

func BenchmarkNegotiationDepth2(b *testing.B) { benchmarkDepth(b, 2) }
func BenchmarkNegotiationDepth4(b *testing.B) { benchmarkDepth(b, 4) }
func BenchmarkNegotiationDepth8(b *testing.B) { benchmarkDepth(b, 8) }

func branchFixture(b *testing.B, branches int) (*Party, *Party) {
	ca := pki.MustNewAuthority("CA")
	reqProf := xtnl.NewProfile("REQ")
	ctlProf := xtnl.NewProfile("CTL")
	// Controller offers Resource behind ReqCred; requester protects
	// ReqCred behind N alternatives, only the last of which the
	// controller can satisfy.
	reqProf.Add(ca.MustIssue(pki.IssueRequest{Type: "ReqCred", Holder: "REQ"}))
	var alts []string
	for i := 0; i < branches; i++ {
		alts = append(alts, "Alt"+string(rune('0'+i)))
	}
	ctlProf.Add(ca.MustIssue(pki.IssueRequest{Type: alts[branches-1], Holder: "CTL"}))
	rule := "ReqCred <- " + strings.Join(alts, " | ")
	req := &Party{Name: "REQ", Profile: reqProf,
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(rule)...), Trust: pki.NewTrustStore(ca)}
	ctl := &Party{Name: "CTL", Profile: ctlProf,
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies("Resource <- ReqCred")...), Trust: pki.NewTrustStore(ca)}
	return req, ctl
}

func benchmarkBranch(b *testing.B, branches int) {
	req, ctl := branchFixture(b, branches)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := Run(req, ctl, "Resource")
		if err != nil || !out.Succeeded {
			b.Fatalf("negotiation failed: %v %+v", err, out)
		}
	}
}

func BenchmarkNegotiationBranch1(b *testing.B) { benchmarkBranch(b, 1) }
func BenchmarkNegotiationBranch4(b *testing.B) { benchmarkBranch(b, 4) }
func BenchmarkNegotiationBranch8(b *testing.B) { benchmarkBranch(b, 8) }

func benchmarkStrategy(b *testing.B, s Strategy) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := newFixture(b)
		f.aerospace.Strategy = s
		f.aircraft.Strategy = s
		if s.RequiresSelectiveDisclosure() {
			b.Skip("suspicious strategies benchmarked separately with selective credentials")
		}
		b.StartTimer()
		out, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
		if err != nil || !out.Succeeded {
			b.Fatalf("negotiation failed: %v %+v", err, out)
		}
	}
}

func BenchmarkStrategyTrusting(b *testing.B) { benchmarkStrategy(b, Trusting) }
func BenchmarkStrategyStandard(b *testing.B) { benchmarkStrategy(b, Standard) }

// TestX509FormatNegotiation exercises the §6.3 dual-format support: the
// aircraft company discloses its accreditation as an X.509 attribute
// certificate instead of X-TNL XML; the counterpart verifies it against
// the same trust roots and the negotiation still succeeds.
func TestX509FormatNegotiation(t *testing.T) {
	f := newFixture(t)
	der, err := f.aaaCA.EncodeX509Attribute(f.aaaCred)
	if err != nil {
		t.Fatal(err)
	}
	f.aircraft.X509 = map[string][]byte{f.aaaCred.ID: der}
	f.aircraft.PreferX509 = true

	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !reqOut.Succeeded {
		t.Fatalf("x509 negotiation failed: %s", reqOut.Reason)
	}
	if len(reqOut.Received) != 1 || reqOut.Received[0].Credential.Type != "AAAccreditation" {
		t.Fatalf("requester received: %+v", reqOut.Received)
	}
	// the decoded view carries the issuer from the certificate chain
	if reqOut.Received[0].Credential.Issuer != "AAA" {
		t.Fatalf("issuer = %q", reqOut.Received[0].Credential.Issuer)
	}
}

// TestX509FormatRejectsSuspicious confirms §6.3's restriction holds for
// the X.509 encoding too: a suspicious party refuses to disclose a
// format that cannot partially hide its content.
func TestX509FormatRejectsSuspicious(t *testing.T) {
	f := newFixture(t)
	der, err := f.qualityCA.EncodeX509Attribute(f.wdqCred)
	if err != nil {
		t.Fatal(err)
	}
	f.aerospace.X509 = map[string][]byte{f.wdqCred.ID: der}
	f.aerospace.PreferX509 = true
	f.aerospace.Strategy = Suspicious

	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if reqOut.Succeeded {
		t.Fatal("suspicious strategy disclosed a monolithic x509 credential")
	}
	if !strings.Contains(reqOut.Reason, "selective disclosure") {
		t.Fatalf("reason = %q", reqOut.Reason)
	}
}

// TestX509FormatRevoked: a revoked X.509-encoded credential fails the
// negotiation exactly like its XML twin.
func TestX509FormatRevoked(t *testing.T) {
	f := newFixture(t)
	der, err := f.aaaCA.EncodeX509Attribute(f.aaaCred)
	if err != nil {
		t.Fatal(err)
	}
	f.aircraft.X509 = map[string][]byte{f.aaaCred.ID: der}
	f.aircraft.PreferX509 = true
	f.aaaCA.Revoke(f.aaaCred.ID)
	if err := f.aerospace.Trust.AddCRL(f.aaaCA.CRL()); err != nil {
		t.Fatal(err)
	}
	reqOut, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if reqOut.Succeeded {
		t.Fatal("revoked x509 credential accepted")
	}
	if !strings.Contains(reqOut.Reason, "revoked") {
		t.Fatalf("reason = %q", reqOut.Reason)
	}
}

// TestX509SurvivesWireRoundTrip: the DER payload travels intact through
// the XML envelope.
func TestX509SurvivesWireRoundTrip(t *testing.T) {
	f := newFixture(t)
	der, err := f.aaaCA.EncodeX509Attribute(f.aaaCred)
	if err != nil {
		t.Fatal(err)
	}
	f.aircraft.X509 = map[string][]byte{f.aaaCred.ID: der}
	f.aircraft.PreferX509 = true

	rq := NewRequester(f.aerospace, "VoMembership")
	ct := NewController(f.aircraft)
	msg, err := rq.Start()
	if err != nil {
		t.Fatal(err)
	}
	to := ct
	for msg != nil {
		decoded, err := ParseMessage(msg.XML())
		if err != nil {
			t.Fatal(err)
		}
		reply, err := to.Handle(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if to == ct {
			to = rq
		} else {
			to = ct
		}
		msg = reply
	}
	if !rq.Outcome().Succeeded {
		t.Fatalf("wire x509 negotiation failed: %s", rq.Outcome().Reason)
	}
}

// TestWildcardMultiTypeFallback: a wildcard term matches two credential
// types; the less sensitive one is protected by an unsatisfiable chain,
// but the other type's policies can be met. The engine must expose both
// types' policies as alternatives and disclose the credential backing
// the branch that actually succeeded.
func TestWildcardMultiTypeFallback(t *testing.T) {
	f := newFixture(t)
	// Aircraft requires ANY credential with country='IT' from aerospace.
	f.aircraft.Policies = xtnl.MustPolicySet(xtnl.MustParsePolicies(
		"VoMembership <- $any(country='IT')")...)

	easy := f.qualityCA.MustIssue(pki.IssueRequest{
		Type: "ChamberOfCommerce", Holder: "AerospaceCo", Sensitivity: xtnl.SensitivityLow,
		Attributes: []xtnl.Attribute{{Name: "country", Value: "IT"}},
	})
	hard := f.qualityCA.MustIssue(pki.IssueRequest{
		Type: "TaxRegistration", Holder: "AerospaceCo", Sensitivity: xtnl.SensitivityHigh,
		Attributes: []xtnl.Attribute{{Name: "country", Value: "IT"}},
	})
	prof := xtnl.NewProfile("AerospaceCo")
	prof.Add(easy, hard)
	f.aerospace.Profile = prof
	// The low-sensitivity candidate is locked behind an impossible
	// requirement; the high-sensitivity one behind a satisfiable one.
	f.aerospace.Policies = xtnl.MustPolicySet(xtnl.MustParsePolicies(`
ChamberOfCommerce <- ImpossibleCredential
TaxRegistration <- AAAccreditation
`)...)

	reqOut, ctlOut, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !reqOut.Succeeded {
		t.Fatalf("multi-type fallback failed: %s", reqOut.Reason)
	}
	// the credential disclosed is the one whose branch was satisfied
	if len(ctlOut.Received) != 1 || ctlOut.Received[0].Credential.Type != "TaxRegistration" {
		t.Fatalf("controller received: %+v", ctlOut.Received)
	}
}

func TestEndpointAccessors(t *testing.T) {
	f := newFixture(t)
	rq := NewRequester(f.aerospace, "VoMembership")
	if rq.Party() != f.aerospace {
		t.Fatal("Party accessor broken")
	}
	if rq.Tree() != nil {
		t.Fatal("tree should be nil before Start")
	}
	if _, err := rq.Start(); err != nil {
		t.Fatal(err)
	}
	if rq.Tree() == nil || rq.Tree().Len() != 1 {
		t.Fatalf("tree after Start: %v", rq.Tree())
	}
	if Requester.String() != "requester" || Controller.String() != "controller" {
		t.Fatal("role labels changed")
	}
}

func TestMustSucceedHelper(t *testing.T) {
	f := newFixture(t)
	out, err := MustSucceed(f.aerospace, f.aircraft, "VoMembership")
	if err != nil || !out.Succeeded {
		t.Fatalf("MustSucceed: %v %+v", err, out)
	}
	if _, err := MustSucceed(f.aerospace, f.aircraft, "NotOffered"); err == nil {
		t.Fatal("MustSucceed should surface failure")
	}
}

// TestSuspiciousDelegatedConceptSelective exercises the selective-
// credential concept path: a suspicious party resolves a concept-level
// term against a selective credential via its ontology.
func TestSuspiciousConceptSelective(t *testing.T) {
	f := newFixture(t)
	o := ontology.New()
	o.MustAdd(&ontology.Concept{
		Name:       "quality-certification",
		Attributes: []string{"regulation"},
		Implementations: []ontology.Implementation{
			{CredType: "WebDesignerQuality", Attribute: "regulation"},
		},
	})
	sc, err := f.qualityCA.IssueSelective(pki.IssueRequest{
		Type: "WebDesignerQuality", Holder: "AerospaceCo", HolderKey: f.aerospaceKeys.Public,
		Attributes: []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.aerospace.Profile = xtnl.NewProfile("AerospaceCo")
	f.aerospace.Selective = map[string]*pki.SelectiveCredential{sc.Committed.ID: sc}
	f.aerospace.Strategy = Suspicious
	f.aerospace.Mapper = &ontology.Mapper{Ontology: o, Profile: f.aerospace.Profile}

	f.aircraft.Mapper = &ontology.Mapper{Ontology: o, Profile: f.aircraft.Profile}
	f.aircraft.AbstractLevels = 1

	out, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Succeeded {
		t.Fatalf("suspicious concept-selective negotiation failed: %s", out.Reason)
	}
}

// TestSuspiciousConceptOpensMappedAttributes: a suspicious discloser
// answering a concept-level term opens the attribute that the verifier
// reads once it maps the concept's attribute (standard) onto the
// credential's (regulation), and no other. It used to open what the
// concept-level condition named, nothing, and the negotiation failed.
func TestSuspiciousConceptOpensMappedAttributes(t *testing.T) {
	f := suspiciousFixture(t)
	o := ontology.New()
	o.MustAdd(&ontology.Concept{
		Name:       "quality-certification",
		Attributes: []string{"standard"},
		Implementations: []ontology.Implementation{
			{CredType: "WebDesignerQuality", Attribute: "regulation"},
		},
	})
	f.aerospace.Mapper = &ontology.Mapper{Ontology: o, Profile: f.aerospace.Profile}
	f.aircraft.Mapper = &ontology.Mapper{Ontology: o, Profile: f.aircraft.Profile}
	f.aircraft.AbstractLevels = 1

	reqOut, ctlOut, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if !reqOut.Succeeded || len(ctlOut.Received) != 1 {
		t.Fatalf("suspicious concept negotiation failed: %s", reqOut.Reason)
	}
	var opened []string
	for _, a := range ctlOut.Received[0].Credential.Attributes {
		opened = append(opened, a.Name)
	}
	if !slices.Equal(opened, []string{"regulation"}) {
		t.Fatalf("opened %v, want [regulation]", opened)
	}
}

// TestProofDemandWithoutKeys: a party facing a proof-demanding
// counterpart but holding no keys fails cleanly.
func TestProofDemandWithoutKeys(t *testing.T) {
	f := suspiciousFixture(t)
	f.aircraft.Keys = nil // controller cannot prove ownership
	out, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if out.Succeeded {
		t.Fatal("succeeded without required proofs")
	}
	if !strings.Contains(out.Reason, "no keys") && !strings.Contains(out.Reason, "ownership") {
		t.Fatalf("reason = %q", out.Reason)
	}
}

func TestPartyClockOverride(t *testing.T) {
	// A party whose clock is far in the future sees every credential as
	// expired.
	f := newFixture(t)
	f.aircraft.Clock = func() time.Time { return time.Now().Add(10 * 365 * 24 * time.Hour) }
	out, _, err := Run(f.aerospace, f.aircraft, "VoMembership")
	if err != nil {
		t.Fatal(err)
	}
	if out.Succeeded {
		t.Fatal("future clock accepted stale credentials")
	}
}
