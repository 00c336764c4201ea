package pki

import (
	"crypto/ed25519"
	"crypto/sha1"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"sync"
	"time"

	"trustvo/internal/xtnl"
)

// X.509 v2-style attribute certificates (§6.3): the paper's prototype
// was "upgraded … to support both our XML proprietary format and the
// X.509 v2 format for attribute certificates". This file gives every
// credential Authority a second encoding: the same logical attribute
// credential carried as a DER X.509 certificate whose extensions hold
// the credential type, ID, holder key and content attributes.
//
// The §6.3 behavioural consequence is preserved: an X.509-encoded
// credential is monolithic — no partial hiding — so the suspicious
// strategies reject it (negotiation.ErrSelectiveRequired).

// Extension OIDs (private arc, distinct from the membership-token arc).
var (
	oidAttrCredType  = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 2, 1}
	oidAttrCredID    = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 2, 2}
	oidAttrHolderKey = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 2, 3}
	oidAttrContent   = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 2, 4}
	oidAttrSens      = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 2, 5}
)

// x509State holds an authority's lazily created X.509 issuing state.
type x509State struct {
	once   sync.Once
	ca     caCert
	err    error
	serial int64
	mu     sync.Mutex
}

// nextSerial allocates the next issued-certificate counter value.
func (st *x509State) nextSerial() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.serial++
	return st.serial
}

func (a *Authority) x509state() (*x509State, error) {
	st := &a.x509
	st.once.Do(func() {
		st.ca, st.err = a.mintCA(time.Now())
		if st.err != nil {
			st.err = fmt.Errorf("pki: x509 CA for %s: %w", a.Name, st.err)
		}
	})
	return st, st.err
}

// mintCA writes the authority's self-signed X.509 CA certificate, valid
// from an hour before now for twenty years.
func (a *Authority) mintCA(now time.Time) (caCert, error) {
	return mintCA(&certificate{
		serial:    1,
		subject:   name{cn: a.Name},
		notBefore: now.Add(-time.Hour),
		notAfter:  now.Add(20 * 365 * 24 * time.Hour),
		key:       a.Keys.Public,
		usage:     x509.KeyUsageCertSign,
		ca:        true,
	}, a.Keys.Private)
}

// IssueX509Attribute mints the credential in both encodings: the X-TNL
// credential (as Issue) plus its X.509 attribute-certificate DER. The
// two carry the same credential ID, so revocation covers both.
func (a *Authority) IssueX509Attribute(req IssueRequest) (*xtnl.Credential, []byte, error) {
	cred, err := a.Issue(req)
	if err != nil {
		return nil, nil, err
	}
	der, err := a.EncodeX509Attribute(cred)
	if err != nil {
		return nil, nil, err
	}
	return cred, der, nil
}

// EncodeX509Attribute encodes one of this authority's credentials as an
// X.509 attribute certificate.
func (a *Authority) EncodeX509Attribute(cred *xtnl.Credential) ([]byte, error) {
	if cred.Issuer != a.Name {
		return nil, fmt.Errorf("pki: credential %s issued by %q, not by %q", cred.ID, cred.Issuer, a.Name)
	}
	st, err := a.x509state()
	if err != nil {
		return nil, err
	}
	serial := st.nextSerial() + 1 // serial 1 is the CA certificate itself

	notBefore := cred.ValidFrom
	if notBefore.IsZero() {
		notBefore = time.Now().Add(-time.Minute)
	}
	notAfter := cred.ValidUntil
	if notAfter.IsZero() {
		notAfter = time.Now().Add(365 * 24 * time.Hour)
	}
	// The subject key: the holder's key when present (enabling ownership
	// proofs), otherwise a throwaway.
	subjectKey := ed25519.PublicKey(cred.HolderKey)
	if len(subjectKey) != ed25519.PublicKeySize {
		kp, err := GenerateKeyPair()
		if err != nil {
			return nil, err
		}
		subjectKey = kp.Public
	}
	der, err := a.mintAttribute(&st.ca, cred, serial, subjectKey, notBefore, notAfter)
	if err != nil {
		return nil, fmt.Errorf("pki: encode x509 attribute cert: %w", err)
	}
	return der, nil
}

// mintAttribute writes cred's attribute certificate under the CA
// certificate parent, with the given serial, subject key and validity.
func (a *Authority) mintAttribute(parent *caCert, cred *xtnl.Credential, serial int64, key ed25519.PublicKey, notBefore, notAfter time.Time) ([]byte, error) {
	extra := []extension{
		{id: oidAttrCredType, str: cred.Type},
		{id: oidAttrCredID, str: cred.ID},
		{id: oidAttrSens, str: cred.Sensitivity.String()},
		{id: oidAttrContent, kind: extAttrs, attrs: cred.Attributes},
		{id: oidAttrHolderKey, kind: extRaw, raw: cred.HolderKey}, // only for a full-size key
	}
	if len(cred.HolderKey) != ed25519.PublicKeySize {
		extra = extra[:len(extra)-1]
	}
	return mint(&certificate{
		serial:    serial,
		subject:   name{cn: cred.Holder},
		notBefore: notBefore,
		notAfter:  notAfter,
		key:       key,
		usage:     x509.KeyUsageDigitalSignature,
		extra:     extra,
	}, parent, a.Keys.Private)
}

// DecodeX509Attribute reads an X.509 attribute certificate into its
// logical credential view WITHOUT verifying trust (use
// TrustStore.VerifyX509Attribute for that). The certificate must be an
// attribute certificate or a membership token exactly as pki writes it.
// The returned credential has no XML signature — its authenticity is the
// certificate signature — and its strings share one copy of the
// certificate's TBSCertificate.
func DecodeX509Attribute(der []byte) (*xtnl.Credential, error) {
	rc, err := readCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: read x509 attribute cert: %w", err)
	}
	defer rc.release()
	return rc.credential()
}

// credential returns the attribute credential rc carries.
func (rc *readCert) credential() (*xtnl.Credential, error) {
	if rc.layout == layoutCA {
		return nil, errors.New("pki: x509 certificate is not an attribute credential (no credType extension)")
	}
	cred := &xtnl.Credential{
		Holder:     rc.subject.cn,
		Issuer:     rc.issuer.cn,
		ValidFrom:  rc.notBefore,
		ValidUntil: rc.notAfter,
	}
	for _, x := range rc.extra {
		switch {
		case x.id.Equal(oidAttrCredType):
			cred.Type = x.str
		case x.id.Equal(oidAttrCredID):
			cred.ID = x.str
		case x.id.Equal(oidAttrSens):
			cred.Sensitivity = xtnl.ParseSensitivity(x.str)
		case x.id.Equal(oidAttrHolderKey):
			cred.HolderKey = append([]byte(nil), x.raw...)
		case x.id.Equal(oidAttrContent):
			cred.Attributes = append([]xtnl.Attribute(nil), x.attrs...)
		}
	}
	if cred.Type == "" {
		return nil, errors.New("pki: x509 certificate is not an attribute credential (empty credType)")
	}
	return cred, nil
}

// VerifyX509Attribute decodes and verifies an X.509 attribute
// certificate, or a membership token presented as a ticket, as
// DecodeX509Attribute reads it. Its checks, in this order: the issuer CN
// must name a trusted root and the authority key id must be the SHA-1
// of that root's key, as mint writes it (ErrUnknownIssuer); the validity
// window must include now (ErrExpired); the Ed25519 signature over the
// TBSCertificate must verify with the root's key (ErrBadSignature); and
// the embedded credential ID must not be revoked (ErrRevoked).
func (ts *TrustStore) VerifyX509Attribute(der []byte, now time.Time) (*xtnl.Credential, error) {
	rc, err := readCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: read x509 attribute cert: %w", err)
	}
	defer rc.release()
	cred, err := rc.credential()
	if err != nil {
		return nil, err
	}
	key, ok := ts.KeyFor(cred.Issuer)
	if !ok {
		return nil, fmt.Errorf("%w: %q (x509 credential %s)", ErrUnknownIssuer, cred.Issuer, cred.ID)
	}
	if keyID := sha1.Sum(key); !rc.issuedBy(rc.issuer, keyID[:]) {
		return nil, fmt.Errorf("%w: %q under another key (x509 credential %s)", ErrUnknownIssuer, cred.Issuer, cred.ID)
	}
	if !rc.within(now) {
		return nil, fmt.Errorf("%w: x509 credential %s", ErrExpired, cred.ID)
	}
	if !ed25519.Verify(key, rc.tbs, rc.sig) {
		return nil, fmt.Errorf("%w: x509 credential %s from %s", ErrBadSignature, cred.ID, cred.Issuer)
	}
	if ts.IsRevoked(cred) {
		return nil, fmt.Errorf("%w: x509 credential %s", ErrRevoked, cred.ID)
	}
	return cred, nil
}
