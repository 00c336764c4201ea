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
	tmpl := &x509.Certificate{
		SerialNumber:    big.NewInt(serial),
		Subject:         pkix.Name{CommonName: member, Organization: []string{a.VO}},
		NotBefore:       notBefore,
		NotAfter:        notAfter,
		KeyUsage:        x509.KeyUsageDigitalSignature,
		ExtraExtensions: exts,
	}
	return x509.CreateCertificate(rand.Reader, tmpl, a.caCert, key, a.Keys.Private)
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
				got = a.caCert.Raw
			}
			want, wantErr := refVOCA(n, kp, now)
			sameCert(t, fmt.Sprintf("VO CA %q at %v", n, now), got, err, want, wantErr)
			if err != nil && utf8.ValidString(n) {
				t.Fatalf("VO CA %q at %v: %v", n, now, err)
			}

			ca := &Authority{Name: n, Keys: kp}
			got, err = ca.mintCA(now)
			want, wantErr = refAuthorityCA(ca, now)
			sameCert(t, fmt.Sprintf("authority CA %q at %v", n, now), got, err, want, wantErr)
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
			got = voa.caCert.Raw
		}
		want, wantErr := refVOCA(org, caKeys, now)
		sameCert(t, "VO CA", got, err, want, wantErr)
		if err == nil {
			got, err = voa.mintMembership(holder, value, serial, subject, nb, na)
			want, wantErr = refMembership(voa, holder, value, serial, subject, nb, na)
			sameCert(t, "membership token", got, err, want, wantErr)
		}

		ca := &Authority{Name: org, Keys: caKeys}
		got, err = ca.mintCA(now)
		want, wantErr = refAuthorityCA(ca, now)
		sameCert(t, "authority CA", got, err, want, wantErr)
		if err != nil {
			return
		}
		parent, err := x509.ParseCertificate(got)
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
		got, err = ca.mintAttribute(parent, cred, serial, subject, nb, na)
		want, wantErr = refAttribute(parent, ca, cred, serial, subject, nb, na)
		sameCert(t, "attribute certificate", got, err, want, wantErr)
	})
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
