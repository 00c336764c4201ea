package pki

import (
	"bytes"
	"crypto/ed25519"
	"testing"
	"time"
)

// A tlv is a DER value taken apart for surgery: a constructed value
// keeps its children, a primitive one its contents.
type tlv struct {
	tag  byte
	body []byte
	kids []*tlv
	long bool // write the length in the long form even where the short one fits
}

// parseTLV takes b, which must be one DER value, apart.
func parseTLV(t *testing.T, b []byte) *tlv {
	t.Helper()
	v, rest := parseOne(t, b)
	if len(rest) != 0 {
		t.Fatalf("%d bytes after a DER value", len(rest))
	}
	return v
}

func parseOne(t *testing.T, b []byte) (*tlv, []byte) {
	t.Helper()
	if len(b) < 2 {
		t.Fatal("truncated DER")
	}
	n, h := int(b[1]), 2
	if n&0x80 != 0 {
		k := n & 0x7f
		n = 0
		for _, o := range b[2 : 2+k] {
			n = n<<8 | int(o)
		}
		h += k
	}
	v := &tlv{tag: b[0], body: b[h : h+n]}
	if v.tag&0x20 != 0 { // constructed
		for rest := v.body; len(rest) > 0; {
			var kid *tlv
			kid, rest = parseOne(t, rest)
			v.kids = append(v.kids, kid)
		}
		v.body = nil
	}
	return v, b[h+n:]
}

// der writes v back, every length in the fewest octets unless long.
func (v *tlv) der() []byte {
	body := v.body
	if v.tag&0x20 != 0 {
		body = nil
		for _, kid := range v.kids {
			body = append(body, kid.der()...)
		}
	}
	out := []byte{v.tag}
	switch n := len(body); {
	case n < 0x80 && !v.long:
		out = append(out, byte(n))
	case n < 0x100:
		out = append(out, 0x81, byte(n))
	default:
		out = append(out, 0x82, byte(n>>8), byte(n))
	}
	return append(out, body...)
}

// resign writes cert with its TBSCertificate signed afresh with key.
func resign(cert *tlv, key ed25519.PrivateKey) []byte {
	sig := ed25519.Sign(key, cert.kids[0].der())
	cert.kids[2] = &tlv{tag: tagBitString, body: append([]byte{0}, sig...)}
	return cert.der()
}

// TestCertificatesVerifyOnlyAsWritten re-spells a membership token and
// an attribute certificate in ways crypto/x509 may accept but mint
// never writes, re-signs each with the issuer's own key, and requires
// every one to be refused.
func TestCertificatesVerifyOnlyAsWritten(t *testing.T) {
	voa, err := NewVOAuthority("AircraftOptimizationVO")
	if err != nil {
		t.Fatal(err)
	}
	tok, err := voa.IssueMembership("AerospaceCo", "DesignWebPortal", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ca := MustNewAuthority("CertCA")
	_, attrDER, err := ca.IssueX509Attribute(IssueRequest{Type: "ISO9000", Holder: "AerospaceCo", HolderKey: MustGenerateKeyPair().Public})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca)

	// An extension pki does not write: OID 1.3.6.1.4.1.55555.9.9, the
	// PrintableString "x".
	unknown := &tlv{tag: tagSequence, kids: []*tlv{
		{tag: tagOID, body: []byte{0x2b, 6, 1, 4, 1, 0x83, 0xb2, 3, 9, 9}},
		{tag: tagOctetString, body: []byte{tagPrintableString, 1, 'x'}},
	}}
	// Each case changes a certificate taken apart: kids[0] is its
	// TBSCertificate, whose kids are version, serial, signature
	// algorithm, issuer, validity, subject, key and [3] extensions.
	extensions := func(cert *tlv) *tlv { return cert.kids[0].kids[7].kids[0] }
	cases := []struct {
		name   string
		change func(cert *tlv) // nil: the certificate as issued
		tail   []byte
	}{
		{name: "as issued, re-encoded"},
		{name: "the subject CN as a UTF8String", change: func(cert *tlv) {
			cn := cert.kids[0].kids[5].kids
			cn[len(cn)-1].kids[0].kids[1].tag = tagUTF8String
		}},
		{name: "an extra non-critical extension", change: func(cert *tlv) {
			list := extensions(cert)
			list.kids = append(list.kids, unknown)
		}},
		{name: "pki's first two extensions swapped", change: func(cert *tlv) {
			// key usage and the authority key id come first
			kids := extensions(cert).kids
			kids[2], kids[3] = kids[3], kids[2]
		}},
		{name: "the serial with a redundant leading zero", change: func(cert *tlv) {
			serial := cert.kids[0].kids[1]
			serial.body = append([]byte{0}, serial.body...)
		}},
		{name: "the version's length in the long form", change: func(cert *tlv) {
			cert.kids[0].kids[0].long = true
		}},
		{name: "the signature algorithm with a NULL parameter", change: func(cert *tlv) {
			alg := cert.kids[1]
			alg.kids = append(alg.kids, &tlv{tag: 0x05})
		}},
		{name: "a byte after the certificate", tail: []byte{0}},
	}
	for _, c := range cases {
		for _, issued := range []struct {
			kind string
			der  []byte
			key  ed25519.PrivateKey
			read func(der []byte) error
		}{
			{"membership token", tok.DER, voa.Keys.Private, func(der []byte) error {
				_, err := voa.VerifyMembership(der)
				return err
			}},
			{"attribute certificate", attrDER, ca.Keys.Private, func(der []byte) error {
				_, err := ts.VerifyX509Attribute(der, time.Now())
				return err
			}},
			{"attribute certificate, decoded", attrDER, ca.Keys.Private, func(der []byte) error {
				_, err := DecodeX509Attribute(der)
				return err
			}},
		} {
			cert := parseTLV(t, issued.der)
			if c.change != nil {
				c.change(cert)
			}
			der := append(resign(cert, issued.key), c.tail...)
			err := issued.read(der)
			if c.change == nil && c.tail == nil {
				if !bytes.Equal(der, issued.der) || err != nil {
					t.Fatalf("%s %s: %v", issued.kind, c.name, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s with %s verified", issued.kind, c.name)
			}
		}
	}
}
