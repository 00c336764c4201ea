package pki

import (
	"encoding/pem"
	"errors"
	"testing"
	"time"

	"trustvo/internal/xtnl"
)

func TestX509AttributeRoundTrip(t *testing.T) {
	ca := MustNewAuthority("CertCA")
	holder := MustGenerateKeyPair()
	cred, der, err := ca.IssueX509Attribute(IssueRequest{
		Type: "ISO 9000 Certified", Holder: "AerospaceCo", HolderKey: holder.Public,
		Sensitivity: xtnl.SensitivityLow,
		Attributes:  []xtnl.Attribute{{Name: "QualityRegulation", Value: "UNI EN ISO 9000"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	view, err := DecodeX509Attribute(der)
	if err != nil {
		t.Fatal(err)
	}
	if view.Type != cred.Type || view.ID != cred.ID || view.Holder != cred.Holder || view.Issuer != "CertCA" {
		t.Fatalf("identity lost: %+v", view)
	}
	if view.Sensitivity != xtnl.SensitivityLow {
		t.Fatalf("sensitivity lost: %v", view.Sensitivity)
	}
	if v, ok := view.Attr("QualityRegulation"); !ok || v != "UNI EN ISO 9000" {
		t.Fatalf("attributes lost: %+v", view.Attributes)
	}
	if string(view.HolderKey) != string(holder.Public) {
		t.Fatal("holder key lost")
	}
	// validity mirrors the XML credential (truncated to seconds)
	if !view.ValidFrom.Equal(cred.ValidFrom) || !view.ValidUntil.Equal(cred.ValidUntil) {
		t.Fatalf("validity drifted: %v..%v vs %v..%v",
			view.ValidFrom, view.ValidUntil, cred.ValidFrom, cred.ValidUntil)
	}
}

func TestX509AttributeVerify(t *testing.T) {
	ca := MustNewAuthority("CertCA")
	_, der, err := ca.IssueX509Attribute(IssueRequest{Type: "T", Holder: "h"})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca)
	view, err := ts.VerifyX509Attribute(der, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if view.Type != "T" {
		t.Fatalf("view = %+v", view)
	}
	// untrusted issuer
	other := NewTrustStore(MustNewAuthority("Other"))
	if _, err := other.VerifyX509Attribute(der, time.Now()); !errors.Is(err, ErrUnknownIssuer) {
		t.Fatalf("untrusted: %v", err)
	}
	// tampered DER
	bad := append([]byte(nil), der...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := ts.VerifyX509Attribute(bad, time.Now()); err == nil {
		t.Fatal("tampered certificate accepted")
	}
	// expired
	if _, err := ts.VerifyX509Attribute(der, time.Now().Add(10*365*24*time.Hour)); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired: %v", err)
	}
	// garbage
	if _, err := ts.VerifyX509Attribute([]byte("nope"), time.Now()); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestX509AttributeRevocationSharedWithXML(t *testing.T) {
	ca := MustNewAuthority("CertCA")
	cred, der, err := ca.IssueX509Attribute(IssueRequest{Type: "T", Holder: "h"})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca)
	// revoking the credential ID kills BOTH encodings
	ca.Revoke(cred.ID)
	if err := ts.AddCRL(ca.CRL()); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.VerifyX509Attribute(der, time.Now()); !errors.Is(err, ErrRevoked) {
		t.Fatalf("x509 revocation: %v", err)
	}
	if err := ts.Verify(cred, time.Now()); !errors.Is(err, ErrRevoked) {
		t.Fatalf("xml revocation: %v", err)
	}
}

func TestEncodeX509RejectsForeignCredential(t *testing.T) {
	ca := MustNewAuthority("CertCA")
	other := MustNewAuthority("Other")
	cred := other.MustIssue(IssueRequest{Type: "T"})
	if _, err := ca.EncodeX509Attribute(cred); err == nil {
		t.Fatal("foreign credential encoded")
	}
}

func TestEncodeX509AttributeRefusesInvalidUTF8(t *testing.T) {
	ca := MustNewAuthority("CertCA")
	for _, spoil := range []func(*xtnl.Credential){
		func(c *xtnl.Credential) { c.Type = "T\xff" },
		func(c *xtnl.Credential) { c.ID = "id-\xfe" },
	} {
		cred := ca.MustIssue(IssueRequest{Type: "T", Holder: "h"})
		spoil(cred)
		if der, err := ca.EncodeX509Attribute(cred); err == nil {
			t.Fatalf("credential type %q, ID %q encoded: %x", cred.Type, cred.ID, der)
		}
	}
}

func TestDecodeX509RejectsPlainCertificates(t *testing.T) {
	// a bare CA certificate is an X.509 cert but NOT an attribute
	// credential (no credType extension): neither the VO CA nor an
	// authority's X.509 CA decodes, or verifies with its CA trusted
	voa, err := NewVOAuthority("VO")
	if err != nil {
		t.Fatal(err)
	}
	block, _ := pem.Decode(voa.CACertPEM())
	if block == nil {
		t.Fatal("VO CA PEM holds no block")
	}
	voTrust := NewTrustStore()
	voTrust.AddRoot(voa.TrustAnchor())
	ca := MustNewAuthority("CertCA")
	st, err := ca.x509state()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		der  []byte
		ts   *TrustStore
	}{
		{"the VO CA", block.Bytes, voTrust},
		{"an authority's X.509 CA", st.ca.der, NewTrustStore(ca)},
	} {
		if view, err := DecodeX509Attribute(c.der); err == nil {
			t.Errorf("%s decoded as an attribute credential: %+v", c.name, view)
		}
		if view, err := c.ts.VerifyX509Attribute(c.der, time.Now()); err == nil {
			t.Errorf("%s verified as an attribute credential: %+v", c.name, view)
		}
	}
	tok, err := voa.IssueMembership("m", "r", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// membership tokens now DO decode (they double as participation
	// tickets)…
	view, err := DecodeX509Attribute(tok.DER)
	if err != nil {
		t.Fatalf("membership token should decode as a ticket: %v", err)
	}
	if view.Type != ParticipationTicketType {
		t.Fatalf("ticket type = %q", view.Type)
	}
	if v, _ := view.Attr("vo"); v != "VO" {
		t.Fatalf("ticket vo = %q", v)
	}
	if v, _ := view.Attr("role"); v != "r" {
		t.Fatalf("ticket role = %q", v)
	}
}

// TestVerifyX509AttributeRefusals checks the order of the checks and
// the sentinel each refusal wraps: an expired certificate whose
// signature is also tampered is ErrExpired, and one whose issuer CN
// names a trusted root under another key is ErrUnknownIssuer.
func TestVerifyX509AttributeRefusals(t *testing.T) {
	ca := MustNewAuthority("CertCA")
	_, der, err := ca.IssueX509Attribute(IssueRequest{Type: "T", Holder: "h", Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca)
	tampered := append([]byte(nil), der...)
	tampered[len(tampered)-1] ^= 1
	later := time.Now().Add(2 * time.Hour)
	for _, c := range []struct {
		name string
		ts   *TrustStore
		der  []byte
		now  time.Time
		want error
	}{
		{"tampered", ts, tampered, time.Now(), ErrBadSignature},
		{"expired", ts, der, later, ErrExpired},
		{"expired and tampered", ts, tampered, later, ErrExpired},
		{"a root of the same name with another key", NewTrustStore(MustNewAuthority("CertCA")), der, time.Now(), ErrUnknownIssuer},
		{"an untrusted issuer, expired and tampered", NewTrustStore(), tampered, later, ErrUnknownIssuer},
	} {
		if _, err := c.ts.VerifyX509Attribute(c.der, c.now); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}

func TestMembershipTicketVerifiesViaTrustAnchor(t *testing.T) {
	voa, err := NewVOAuthority("AircraftOptimizationVO")
	if err != nil {
		t.Fatal(err)
	}
	tok, err := voa.IssueMembership("AerospaceCo", "DesignWebPortal", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	name, key := voa.TrustAnchor()
	ts := NewTrustStore()
	ts.AddRoot(name, key)
	view, err := ts.VerifyX509Attribute(tok.DER, time.Now())
	if err != nil {
		t.Fatalf("ticket verification: %v", err)
	}
	if v, _ := view.Attr("vo"); v != "AircraftOptimizationVO" {
		t.Fatalf("ticket vo = %q", v)
	}
	// a stranger's trust store rejects it
	other := NewTrustStore(MustNewAuthority("Other"))
	if _, err := other.VerifyX509Attribute(tok.DER, time.Now()); err == nil {
		t.Fatal("ticket accepted without the VO trust anchor")
	}
}

func TestX509OwnershipProof(t *testing.T) {
	ca := MustNewAuthority("CertCA")
	holder := MustGenerateKeyPair()
	_, der, err := ca.IssueX509Attribute(IssueRequest{Type: "T", Holder: "h", HolderKey: holder.Public})
	if err != nil {
		t.Fatal(err)
	}
	view, err := DecodeX509Attribute(der)
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := NewNonce()
	if err := VerifyOwnership(view, nonce, ProveOwnership(holder, nonce)); err != nil {
		t.Fatalf("ownership over x509 view: %v", err)
	}
}

func BenchmarkEncodeX509Attribute(b *testing.B) {
	ca := MustNewAuthority("CertCA")
	cred := ca.MustIssue(IssueRequest{Type: "T", Holder: "h",
		Attributes: []xtnl.Attribute{{Name: "a", Value: "v"}}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.EncodeX509Attribute(cred); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyX509Attribute(b *testing.B) {
	ca := MustNewAuthority("CertCA")
	_, der, err := ca.IssueX509Attribute(IssueRequest{Type: "T", Holder: "h"})
	if err != nil {
		b.Fatal(err)
	}
	ts := NewTrustStore(ca)
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.VerifyX509Attribute(der, now); err != nil {
			b.Fatal(err)
		}
	}
}
