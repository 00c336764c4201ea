package pki

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
	"math/big"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"trustvo/internal/xtnl"
)

// The reference: the x509.Certificate templates pki passed to
// x509.CreateCertificate before it wrote certificates itself, with
// extension values from asn1.Marshal. mint must write the same bytes,
// or refuse where these refuse.

func refVOCA(voName string, kp *KeyPair, now time.Time) ([]byte, error) {
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "VO CA " + voName, Organization: []string{voName}},
		NotBefore:             now.Add(-time.Hour),
		NotAfter:              now.Add(10 * 365 * 24 * time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	return x509.CreateCertificate(rand.Reader, tmpl, tmpl, kp.Public, kp.Private)
}

func refAuthorityCA(a *Authority, now time.Time) ([]byte, error) {
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: a.Name},
		NotBefore:             now.Add(-time.Hour),
		NotAfter:              now.Add(20 * 365 * 24 * time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	return x509.CreateCertificate(rand.Reader, tmpl, tmpl, a.Keys.Public, a.Keys.Private)
}

// refExtensions marshals each value in order; an error is a refusal.
func refExtensions(ids []asn1.ObjectIdentifier, values ...any) ([]pkix.Extension, error) {
	exts := make([]pkix.Extension, len(values))
	for i, v := range values {
		der, err := asn1.Marshal(v)
		if err != nil {
			return nil, err
		}
		exts[i] = pkix.Extension{Id: ids[i], Value: der}
	}
	return exts, nil
}

func refMembership(a *VOAuthority, member, role string, serial int64, key ed25519.PublicKey, notBefore, notAfter time.Time) ([]byte, error) {
	exts, err := refExtensions(
		[]asn1.ObjectIdentifier{oidVOName, oidVORole, oidAttrCredType, oidAttrCredID, oidAttrContent},
		a.VO, role, ParticipationTicketType, fmt.Sprintf("%s-ticket-%d", a.VO, serial),
		[]xtnl.Attribute{{Name: "vo", Value: a.VO}, {Name: "role", Value: role}, {Name: "member", Value: member}})
	if err != nil {
		return nil, err
	}
	parent, err := x509.ParseCertificate(a.ca.der)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:    big.NewInt(serial),
		Subject:         pkix.Name{CommonName: member, Organization: []string{a.VO}},
		NotBefore:       notBefore,
		NotAfter:        notAfter,
		KeyUsage:        x509.KeyUsageDigitalSignature,
		ExtraExtensions: exts,
	}
	return x509.CreateCertificate(rand.Reader, tmpl, parent, key, a.Keys.Private)
}

func refAttribute(parent *x509.Certificate, a *Authority, cred *xtnl.Credential, serial int64, key ed25519.PublicKey, notBefore, notAfter time.Time) ([]byte, error) {
	exts, err := refExtensions(
		[]asn1.ObjectIdentifier{oidAttrCredType, oidAttrCredID, oidAttrSens, oidAttrContent},
		cred.Type, cred.ID, cred.Sensitivity.String(), cred.Attributes)
	if err != nil {
		return nil, err
	}
	if len(cred.HolderKey) == ed25519.PublicKeySize {
		exts = append(exts, pkix.Extension{Id: oidAttrHolderKey, Value: cred.HolderKey})
	}
	tmpl := &x509.Certificate{
		SerialNumber:    big.NewInt(serial),
		Subject:         pkix.Name{CommonName: cred.Holder},
		NotBefore:       notBefore,
		NotAfter:        notAfter,
		KeyUsage:        x509.KeyUsageDigitalSignature,
		ExtraExtensions: exts,
	}
	return x509.CreateCertificate(rand.Reader, tmpl, parent, key, a.Keys.Private)
}

// sameCert fails unless the writer and the reference both refused, or
// both wrote the same bytes.
func sameCert(t *testing.T, what string, got []byte, err error, want []byte, wantErr error) {
	t.Helper()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: writer error %v, x509.CreateCertificate error %v", what, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: writer and x509.CreateCertificate differ\nwriter %x\nx509   %x", what, got, want)
	}
}

// certNames covers both string types, the bytes encoding/asn1 does not
// count as printable, long-form lengths and invalid UTF-8.
var certNames = []string{
	"AircraftOptimizationVO", "", "Star*VO", "R&D", "tab\tVO", "Ünïcødé VO", "航空",
	strings.Repeat("x", 128), strings.Repeat("y", 300), "bad\xffVO",
}

func TestCAMatchesStdlib(t *testing.T) {
	kp := fixedKeys(7)
	for _, now := range []time.Time{
		time.Date(2026, 10, 17, 7, 30, 15, 999, time.UTC),
		time.Date(1949, 12, 31, 23, 30, 0, 0, time.FixedZone("x", 3600)), // notBefore in 1949
		time.Date(2045, 6, 1, 0, 0, 0, 0, time.UTC),                      // notAfter past 2049
	} {
		for _, n := range certNames {
			a, err := newVOAuthority(n, kp, now)
			var got []byte
			if err == nil {
				got = a.ca.der
			}
			want, wantErr := refVOCA(n, kp, now)
			sameCert(t, fmt.Sprintf("VO CA %q at %v", n, now), got, err, want, wantErr)
			if err != nil && utf8.ValidString(n) {
				t.Fatalf("VO CA %q at %v: %v", n, now, err)
			}

			ca := &Authority{Name: n, Keys: kp}
			caCert, err := ca.mintCA(now)
			want, wantErr = refAuthorityCA(ca, now)
			sameCert(t, fmt.Sprintf("authority CA %q at %v", n, now), caCert.der, err, want, wantErr)
		}
	}
}

// FuzzMintCertificate mints a VO CA, a membership token, an authority
// CA and an attribute certificate from the same inputs through the
// writer and through x509.CreateCertificate, with the same keys.
func FuzzMintCertificate(f *testing.F) {
	y := func(year int) int64 { return time.Date(year, 7, 1, 12, 0, 0, 0, time.UTC).Unix() }
	from, until := y(2026), y(2027)
	for _, n := range certNames {
		f.Add("AircraftOptimizationVO", n, "DesignWebPortal", int64(2), from, until, true)
		f.Add(n, "AerospaceCo", n, int64(3), from, until, false)
	}
	f.Add("VO", "", "r", int64(2), from, until, false)          // empty holder: an empty subject
	f.Add("VO", "VO CA VO", "r", int64(2), from, until, false)  // member's subject is the VO CA's
	f.Add("CertCA", "CertCA", "T", int64(2), from, until, true) // holder's subject is the authority CA's
	for _, serial := range []int64{0, 127, 128, 1 << 31, 1 << 40, -1} {
		f.Add("VO", "m", "r", serial, from, until, true)
	}
	for _, year := range []int{1949, 1950, 2049, 2050, 9999, 10000, -1} {
		f.Add("VO", "m", "r", int64(2), y(year), y(year), false)
	}
	caKeys, subject := fixedKeys(1), fixedKeys(2).Public
	now := time.Date(2026, 10, 17, 7, 30, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, org, holder, value string, serial, notBefore, notAfter int64, keyed bool) {
		nb, na := time.Unix(notBefore, 0), time.Unix(notAfter, 0)

		voa, err := newVOAuthority(org, caKeys, now)
		var got []byte
		if err == nil {
			got = voa.ca.der
		}
		want, wantErr := refVOCA(org, caKeys, now)
		sameCert(t, "VO CA", got, err, want, wantErr)
		if err == nil {
			got, err = voa.mintMembership(holder, value, serial, subject, nb, na)
			want, wantErr = refMembership(voa, holder, value, serial, subject, nb, na)
			sameCert(t, "membership token", got, err, want, wantErr)
		}

		ca := &Authority{Name: org, Keys: caKeys}
		caCert, err := ca.mintCA(now)
		want, wantErr = refAuthorityCA(ca, now)
		sameCert(t, "authority CA", caCert.der, err, want, wantErr)
		if err != nil {
			return
		}
		parent, err := x509.ParseCertificate(caCert.der)
		if err != nil {
			t.Fatalf("parse authority CA: %v", err)
		}
		cred := &xtnl.Credential{
			Type: value, ID: org + "-" + holder, Holder: holder, Issuer: org,
			Sensitivity: xtnl.Sensitivity(serial & 3),
			Attributes:  []xtnl.Attribute{{Name: value, Value: holder}, {Name: "org", Value: org}},
		}
		if keyed {
			cred.HolderKey = subject
		}
		got, err = ca.mintAttribute(&caCert, cred, serial, subject, nb, na)
		want, wantErr = refAttribute(parent, ca, cred, serial, subject, nb, na)
		sameCert(t, "attribute certificate", got, err, want, wantErr)
	})
}

// FuzzReadCertificate mints the four certificates FuzzMintCertificate
// does from fuzzed fields, takes one, applies a fuzzed mutation or none,
// and reads the result through readCertificate and through the
// crypto/x509 references kept in x509_reference_test.go. Unmutated,
// both must give the same verdict and, when they accept, the same
// fields; mutated, whatever the reader accepts the references must
// accept with the same fields. A mutation inside the TBSCertificate is
// re-signed with the issuer's key, so that it reaches the checks after
// the signature.
func FuzzReadCertificate(f *testing.F) {
	y := func(year int) int64 { return time.Date(year, 7, 1, 12, 0, 0, 0, time.UTC).Unix() }
	from, until := y(2020), y(2049)
	for which := uint8(0); which < 4; which++ {
		for _, n := range certNames {
			f.Add("AircraftOptimizationVO", n, "DesignWebPortal", int64(2), from, until, true, which, uint8(0), uint16(0), byte(0))
			f.Add(n, "AerospaceCo", n, int64(3), from, y(2120), false, which, uint8(0), uint16(0), byte(0))
		}
		f.Add("VO", "VO CA VO", "r", int64(2), from, until, false, which, uint8(0), uint16(0), byte(0))
		f.Add("CertCA", "CertCA", "T", int64(2), from, until, true, which, uint8(0), uint16(0), byte(0))
		f.Add("VO", "m", "r", int64(2), y(1990), y(2000), false, which, uint8(0), uint16(0), byte(0))
		for op := uint8(1); op < 12; op++ {
			for _, at := range []uint16{0, 1, 4, 9, 40, 100, 200, 300, 400} {
				f.Add("VO", "m", "r", int64(128), from, until, true, which, op, at, byte(0x0c))
			}
		}
	}
	caKeys, subject := fixedKeys(1), fixedKeys(2).Public
	f.Fuzz(func(t *testing.T, org, holder, value string, serial, notBefore, notAfter int64, keyed bool, which, op uint8, at uint16, b byte) {
		now := time.Now()
		nb, na := time.Unix(notBefore, 0), time.Unix(notAfter, 0)
		voa, err := newVOAuthority(org, caKeys, now)
		if err != nil {
			return // refused alike by x509.CreateCertificate (FuzzMintCertificate)
		}
		ca := &Authority{Name: org, Keys: caKeys}
		authCA, err := ca.mintCA(now)
		if err != nil {
			t.Fatalf("authority CA: %v", err)
		}
		var der []byte
		switch which % 4 {
		case 0:
			der = voa.ca.der
		case 1:
			der, err = voa.mintMembership(holder, value, serial, subject, nb, na)
		case 2:
			der = authCA.der
		case 3:
			cred := &xtnl.Credential{
				Type: value, ID: org + "-" + holder, Holder: holder, Issuer: org,
				Sensitivity: xtnl.Sensitivity(serial & 3),
				Attributes:  []xtnl.Attribute{{Name: value, Value: holder}, {Name: "org", Value: org}},
			}
			if keyed {
				cred.HolderKey = subject
			}
			der, err = ca.mintAttribute(&authCA, cred, serial, subject, nb, na)
		}
		if err != nil {
			return
		}
		mutated := op%3 != 0
		switch op % 3 {
		case 1:
			der = resignTBS(der, caKeys.Private, op/3, at, b)
		case 2:
			der = mutate(der, op/3, at, b)
		}

		switch which % 4 {
		case 0, 2:
			sameCA(t, der, mutated)
		case 1:
			got, err := voa.VerifyMembership(der)
			want, wantErr := refVerifyMembership(voa, der)
			agree(t, "VerifyMembership", mutated, got, err, want, wantErr)
			view, err := DecodeX509Attribute(der)
			wantView, wantErr := refDecodeX509Attribute(der)
			agree(t, "DecodeX509Attribute of a token", mutated, view, err, wantView, wantErr)
		case 3:
			view, err := DecodeX509Attribute(der)
			wantView, wantErr := refDecodeX509Attribute(der)
			agree(t, "DecodeX509Attribute", mutated, view, err, wantView, wantErr)
			ts := NewTrustStore(ca)
			view, err = ts.VerifyX509Attribute(der, now)
			wantView, wantErr = refVerifyX509Attribute(ts, der, now)
			agree(t, "VerifyX509Attribute", mutated, view, err, wantView, wantErr)
		}
	})
}

// agree fails when the reader accepted and the reference did not, or
// with other fields, and for an unmutated certificate also when the
// reference accepted and the reader did not.
func agree[T any](t *testing.T, what string, mutated bool, got T, err error, want T, wantErr error) {
	t.Helper()
	switch {
	case err == nil && wantErr != nil:
		t.Fatalf("%s: the reader accepts what crypto/x509 refuses (%v): %+v", what, wantErr, got)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: the reader reads %+v, crypto/x509 %+v", what, got, want)
	case err != nil && wantErr == nil && !mutated:
		t.Fatalf("%s: the reader refuses what mint wrote and crypto/x509 accepts: %v", what, err)
	}
}

// sameCA reads a CA certificate through readCertificate and through
// x509.ParseCertificate.
func sameCA(t *testing.T, der []byte, mutated bool) {
	t.Helper()
	cert, wantErr := x509.ParseCertificate(der)
	rc, err := readCertificate(der)
	if err != nil {
		if !mutated {
			t.Fatalf("CA: the reader refuses what mint wrote (x509: %v): %v", wantErr, err)
		}
		return
	}
	defer rc.release()
	if wantErr != nil {
		t.Fatalf("CA: the reader accepts what crypto/x509 refuses: %v", wantErr)
	}
	key, _ := cert.PublicKey.(ed25519.PublicKey)
	switch {
	case !cert.SerialNumber.IsInt64() || cert.SerialNumber.Int64() != rc.serial:
		t.Fatalf("CA serial: reader %d, x509 %v", rc.serial, cert.SerialNumber)
	case !sameName(rc.subject, cert.Subject) || !sameName(rc.issuer, cert.Issuer):
		t.Fatalf("CA names: reader %+v by %+v, x509 %v by %v", rc.subject, rc.issuer, cert.Subject, cert.Issuer)
	case !rc.notBefore.Equal(cert.NotBefore) || !rc.notAfter.Equal(cert.NotAfter):
		t.Fatalf("CA validity: reader %v to %v, x509 %v to %v", rc.notBefore, rc.notAfter, cert.NotBefore, cert.NotAfter)
	case !bytes.Equal(rc.key, key) || rc.usage != cert.KeyUsage || rc.ca != (cert.IsCA && cert.BasicConstraintsValid):
		t.Fatalf("CA key, usage or constraints: reader %x %v %v, x509 %x %v %v", rc.key, rc.usage, rc.ca, key, cert.KeyUsage, cert.IsCA)
	}
}

func sameName(n name, p pkix.Name) bool {
	org := []string(nil)
	if n.hasOrg {
		org = []string{n.org}
	}
	return n.cn == p.CommonName && slices.Equal(org, p.Organization)
}

// mutate returns a copy of in with one change at at: kind%4 flips the
// bits of b|1 there, inserts b, deletes a byte or sets it to b.
func mutate(in []byte, kind uint8, at uint16, b byte) []byte {
	out := append([]byte(nil), in...)
	if len(out) == 0 {
		return append(out, b)
	}
	i := int(at) % len(out)
	switch kind % 4 {
	case 0:
		out[i] ^= b | 1
	case 1:
		out = slices.Insert(out, i, b)
	case 2:
		out = slices.Delete(out, i, i+1)
	case 3:
		out[i] = b
	}
	return out
}

// resignTBS mutates the TBSCertificate of der and signs the result
// with key, as mint would.
func resignTBS(der []byte, key ed25519.PrivateKey, kind uint8, at uint16, b byte) []byte {
	var rc readCert
	in := derReader{b: der}
	cert := rc.value(&in, tagSequence)
	rest := cert.b
	rc.value(&cert, tagSequence)
	tbs := mutate(rest[:len(rest)-len(cert.b)], kind, at, b)
	var w derWriter
	c := w.open(tagSequence)
	w.b = append(w.b, tbs...)
	w.algorithm()
	w.bitString(ed25519.Sign(key, tbs))
	w.close(c)
	return w.b
}

func TestMintRefusesForeignKey(t *testing.T) {
	voa, err := newVOAuthority("VO", fixedKeys(1), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	voa.Keys = fixedKeys(2) // no longer the key the CA certificate names
	if _, err := voa.mintMembership("m", "r", 2, fixedKeys(3).Public, time.Now(), time.Now().Add(time.Hour)); err == nil {
		t.Fatal("membership signed with a key other than the CA's")
	}
	if _, err := refMembership(voa, "m", "r", 2, fixedKeys(3).Public, time.Now(), time.Now().Add(time.Hour)); err == nil {
		t.Fatal("reference: membership signed with a key other than the CA's")
	}
}
