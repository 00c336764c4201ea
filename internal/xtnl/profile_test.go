package xtnl

import (
	"testing"
)

func sampleProfile() *Profile {
	p := NewProfile("AerospaceCo")
	p.Add(
		&Credential{ID: "1", Type: "Passport", Sensitivity: SensitivityHigh,
			Attributes: []Attribute{{Name: "gender", Value: "F"}}},
		&Credential{ID: "2", Type: "DrivingLicense", Sensitivity: SensitivityMedium,
			Attributes: []Attribute{{Name: "sex", Value: "F"}}},
		&Credential{ID: "3", Type: "ISO 9000 Certified", Issuer: "INFN", Sensitivity: SensitivityLow,
			Attributes: []Attribute{{Name: "QualityRegulation", Value: "UNI EN ISO 9000"}}},
		&Credential{ID: "4", Type: "ISO 9000 Certified", Issuer: "Other", Sensitivity: SensitivityHigh},
	)
	return p
}

func TestProfileLookups(t *testing.T) {
	p := sampleProfile()
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	if got := len(p.ByType("ISO 9000 Certified")); got != 2 {
		t.Fatalf("ByType = %d, want 2", got)
	}
	if c := p.ByID("2"); c == nil || c.Type != "DrivingLicense" {
		t.Fatalf("ByID(2) = %+v", c)
	}
	if p.ByID("missing") != nil {
		t.Fatal("ByID of unknown id should be nil")
	}
}

func TestProfileSatisfyingOrdersBySensitivity(t *testing.T) {
	p := sampleProfile()
	got := p.Satisfying(Term{CredType: "ISO 9000 Certified"})
	if len(got) != 2 {
		t.Fatalf("Satisfying = %d creds", len(got))
	}
	if got[0].Sensitivity != SensitivityLow || got[1].Sensitivity != SensitivityHigh {
		t.Fatalf("not ordered by sensitivity: %v, %v", got[0].Sensitivity, got[1].Sensitivity)
	}
	// condition narrows to the INFN one
	got = p.Satisfying(Term{CredType: "ISO 9000 Certified",
		Conditions: []string{"/credential/header/issuer='INFN'"}})
	if len(got) != 1 || got[0].ID != "3" {
		t.Fatalf("conditioned Satisfying = %+v", got)
	}
	// wildcard term matches across types
	got = p.Satisfying(Term{Conditions: []string{"/credential/content/sex='F'"}})
	if len(got) != 1 || got[0].Type != "DrivingLicense" {
		t.Fatalf("wildcard Satisfying = %+v", got)
	}
}

func TestClusterMatchesPaperCredCluster(t *testing.T) {
	p := sampleProfile()
	all := p.All()
	if got := Cluster(all, SensitivityLow); len(got) != 1 || got[0].ID != "3" {
		t.Fatalf("low cluster = %+v", got)
	}
	if got := Cluster(all, SensitivityMedium); len(got) != 1 || got[0].ID != "2" {
		t.Fatalf("medium cluster = %+v", got)
	}
	if got := Cluster(all, SensitivityHigh); len(got) != 2 {
		t.Fatalf("high cluster = %+v", got)
	}
}

func TestProfileRemove(t *testing.T) {
	p := sampleProfile()
	if !p.Remove("2") {
		t.Fatal("Remove existing should report true")
	}
	if p.Remove("2") {
		t.Fatal("Remove twice should report false")
	}
	if p.Len() != 3 {
		t.Fatalf("Len after remove = %d", p.Len())
	}
}

func TestProfileXMLRoundTrip(t *testing.T) {
	p := sampleProfile()
	re, err := ParseProfile(p.XML())
	if err != nil {
		t.Fatal(err)
	}
	if re.Owner != "AerospaceCo" || re.Len() != 4 {
		t.Fatalf("round trip: owner=%q len=%d", re.Owner, re.Len())
	}
	if c := re.ByID("3"); c == nil || c.Issuer != "INFN" {
		t.Fatalf("credential 3 lost: %+v", c)
	}
}

func TestParseProfileErrors(t *testing.T) {
	if _, err := ParseProfile("<wrong/>"); err == nil {
		t.Fatal("wrong root should error")
	}
	if _, err := ParseProfile("<X-Profile><credential/></X-Profile>"); err == nil {
		t.Fatal("bad inner credential should error")
	}
	if _, err := ParseProfile("not xml"); err == nil {
		t.Fatal("non-xml should error")
	}
}

// TestSatisfyingSharedCredentialID: an issuer chooses a credential's ID,
// so two credentials can share one. Each is checked against its own
// document, as Term.SatisfiedBy checks it.
func TestSatisfyingSharedCredentialID(t *testing.T) {
	p := NewProfile("AerospaceCo")
	p.Add(
		&Credential{ID: "dup", Type: "Cert", Attributes: []Attribute{{Name: "level", Value: "1"}}},
		&Credential{ID: "dup", Type: "Cert", Attributes: []Attribute{{Name: "level", Value: "3"}}},
	)
	for _, level := range []string{"1", "3"} {
		term := Term{CredType: "Cert", Conditions: []string{"/credential/content/level=" + level}}
		got := p.Satisfying(term)
		if len(got) != 1 || got[0].Attributes[0].Value != level {
			t.Errorf("Satisfying(level = %s) = %+v, want the level-%s credential", level, got, level)
		}
		for _, c := range p.All() {
			if term.SatisfiedBy(c) != (c.Attributes[0].Value == level) {
				t.Errorf("SatisfiedBy(level = %s) disagrees on %+v", level, c)
			}
		}
	}
}
