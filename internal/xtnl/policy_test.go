package xtnl

import (
	"strings"
	"testing"
)

// TestFig7PolicyGolden reproduces the paper's Fig. 7: the disclosure
// policy protecting the "ISO 9000 Certified" credential, requiring an
// Aircraft-Company accreditation credential released by the American
// Aircraft associations, rendered as
// <policy><resource target=…/><properties><certificate targetCertType=…>
// <certCond>XPath</certCond></certificate></properties></policy>.
func TestFig7PolicyGolden(t *testing.T) {
	p := &Policy{
		Resource: "ISO 9000 Certified",
		Terms: []Term{{
			CredType:   "AAAccreditation",
			Conditions: []string{"/credential/header/issuer='American Aircraft Association'"},
		}},
	}
	got := p.XML()
	for _, frag := range []string{
		`<policy`,
		`type="disclosure"`,
		`<resource target="ISO 9000 Certified"/>`,
		`<properties>`,
		`targetCertType="AAAccreditation"`,
		`<certCond>/credential/header/issuer='American Aircraft Association'</certCond>`,
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("Fig. 7 layout missing %q in:\n%s", frag, got)
		}
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	p := &Policy{
		ID:       "pol-1",
		Resource: "VoMembership",
		Terms: []Term{
			{CredType: "WebDesignerQuality", Conditions: []string{"/credential/content/regulation='UNI EN ISO 9000'"}},
			{CredType: "", Conditions: []string{"/credential/header/issuer='X'"}},
		},
		Concepts: []string{"quality-certification"},
	}
	re, err := ParsePolicy(p.XML())
	if err != nil {
		t.Fatal(err)
	}
	if re.ID != p.ID || re.Resource != p.Resource || len(re.Terms) != 2 {
		t.Fatalf("round trip lost structure: %+v", re)
	}
	if re.Terms[0].CredType != "WebDesignerQuality" {
		t.Fatalf("term type lost: %+v", re.Terms[0])
	}
	if len(re.Terms[0].Conditions) != 1 || !strings.Contains(re.Terms[0].Conditions[0], "UNI EN ISO 9000") {
		t.Fatalf("condition lost: %+v", re.Terms[0].Conditions)
	}
	if !re.Terms[1].Wildcard() {
		t.Fatalf("wildcard term lost: %+v", re.Terms[1])
	}
	if len(re.Concepts) != 1 || re.Concepts[0] != "quality-certification" {
		t.Fatalf("concepts lost: %+v", re.Concepts)
	}
}

func TestDeliveryPolicyRoundTrip(t *testing.T) {
	p := &Policy{Resource: "PublicCatalog", Deliver: true}
	re, err := ParsePolicy(p.XML())
	if err != nil {
		t.Fatal(err)
	}
	if !re.Deliver || re.Resource != "PublicCatalog" {
		t.Fatalf("delivery rule lost: %+v", re)
	}
	if got := re.String(); got != "PublicCatalog <- DELIV" {
		t.Fatalf("String() = %q", got)
	}
}

func TestPolicyValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Policy
		ok   bool
	}{
		{"valid", Policy{Resource: "R", Terms: []Term{{CredType: "T"}}}, true},
		{"deliver", Policy{Resource: "R", Deliver: true}, true},
		{"no resource", Policy{Terms: []Term{{CredType: "T"}}}, false},
		{"no terms", Policy{Resource: "R"}, false},
		{"deliver with terms", Policy{Resource: "R", Deliver: true, Terms: []Term{{CredType: "T"}}}, false},
		{"bad condition", Policy{Resource: "R", Terms: []Term{{CredType: "T", Conditions: []string{"/a["}}}}, false},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestTermSatisfiedBy(t *testing.T) {
	cred := iso9000Credential()
	cases := []struct {
		name string
		term Term
		want bool
	}{
		{"type only", Term{CredType: "ISO 9000 Certified"}, true},
		{"wrong type", Term{CredType: "Other"}, false},
		{"type and condition", Term{CredType: "ISO 9000 Certified",
			Conditions: []string{"/credential/content/QualityRegulation='UNI EN ISO 9000'"}}, true},
		{"failing condition", Term{CredType: "ISO 9000 Certified",
			Conditions: []string{"/credential/header/issuer='other'"}}, false},
		{"wildcard with condition", Term{CredType: "$x",
			Conditions: []string{"/credential/header/issuer='INFN'"}}, true},
		{"empty wildcard", Term{}, true},
		{"uncompilable condition", Term{CredType: "ISO 9000 Certified", Conditions: []string{"/["}}, false},
	}
	for _, tc := range cases {
		if got := tc.term.SatisfiedBy(cred); got != tc.want {
			t.Errorf("%s: SatisfiedBy = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestParsePolicyErrors(t *testing.T) {
	cases := []struct {
		name string
		xml  string
	}{
		{"not xml", `<policy`},
		{"wrong root", `<credential/>`},
		{"no resource", `<policy><properties/></policy>`},
		{"no target", `<policy><resource/><properties/></policy>`},
		{"no properties", `<policy><resource target="R"/></policy>`},
		{"empty properties", `<policy><resource target="R"/><properties/></policy>`},
		{"bad xpath", `<policy><resource target="R"/><properties><certificate targetCertType="T"><certCond>/a[</certCond></certificate></properties></policy>`},
	}
	for _, tc := range cases {
		if _, err := ParsePolicy(tc.xml); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestPolicySet(t *testing.T) {
	ps := MustPolicySet(
		&Policy{Resource: "A", Terms: []Term{{CredType: "X"}}},
		&Policy{Resource: "A", Terms: []Term{{CredType: "Y"}}},
		&Policy{Resource: "B", Deliver: true},
	)
	if ps.Len() != 3 {
		t.Fatalf("Len = %d", ps.Len())
	}
	if got := len(ps.For("A")); got != 2 {
		t.Fatalf("alternatives for A = %d, want 2", got)
	}
	if got := len(ps.For("missing")); got != 0 {
		t.Fatalf("policies for unknown resource = %d", got)
	}
	if got := len(ps.Resources()); got != 2 {
		t.Fatalf("Resources = %d", got)
	}
	if err := ps.Add(&Policy{}); err == nil {
		t.Fatal("adding invalid policy should fail")
	}
	var nilSet *PolicySet
	if nilSet.For("A") != nil {
		t.Fatal("nil set should return nil")
	}
}

// TestPolicySetAddKeepsNeighbours adds an alternative, after
// NewPolicySet, to each resource of a set whose index shares one
// backing array: every other resource's alternatives stay as they were,
// in insertion order.
func TestPolicySetAddKeepsNeighbours(t *testing.T) {
	pol := func(res, cred string) *Policy { return &Policy{Resource: res, Terms: []Term{{CredType: cred}}} }
	a1, b1, a2, c1, b2 := pol("A", "1"), pol("B", "1"), pol("A", "2"), pol("C", "1"), pol("B", "2")
	want := map[string][]*Policy{"A": {a1, a2}, "B": {b1, b2}, "C": {c1}}
	ps := MustPolicySet(a1, b1, a2, c1, b2)
	for _, res := range []string{"A", "B", "C"} {
		extra := pol(res, "extra")
		if err := ps.Add(extra); err != nil {
			t.Fatal(err)
		}
		want[res] = append(want[res][:len(want[res]):len(want[res])], extra)
		for r, alts := range want {
			got := ps.For(r)
			if len(got) != len(alts) {
				t.Fatalf("after adding to %s: %s has %d alternatives, want %d", res, r, len(got), len(alts))
			}
			for i := range alts {
				if got[i] != alts[i] {
					t.Errorf("after adding to %s: %s alternative %d is %v, want %v", res, r, i, got[i], alts[i])
				}
			}
		}
	}
	if got := ps.Len(); got != 8 {
		t.Errorf("Len = %d, want 8", got)
	}
}

func TestPolicyString(t *testing.T) {
	p := Policy{Resource: "R", Terms: []Term{
		{CredType: "A"},
		{CredType: "B", Conditions: []string{"x=1", "y=2"}},
		{},
	}}
	got := p.String()
	if !strings.Contains(got, "R <- A, B[x=1][y=2], $any") {
		t.Fatalf("String() = %q", got)
	}
}
