package pki

import (
	"crypto/ed25519"
	"crypto/x509"
	"encoding/asn1"
	"encoding/pem"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"trustvo/internal/xtnl"
)

// This file is the X.509 bridge of §6.3: the VO Management toolkit
// identifies members with X.509 certificates, so the integration mints a
// VO membership credential as a real X.509 certificate at role-assignment
// time ("we modified the TN service code to allow the VO Initiator to
// create at runtime the VO membership credential: this is an X509
// credential that is released to the VO member when it is assigned a VO
// role").
//
// The §6.3 caveat is modelled too: X.509 cannot partially hide its
// content, so profiles restricted to X.509 credentials support only the
// standard and trusting negotiation strategies — internal/negotiation
// enforces that by consulting SupportsSelectiveDisclosure.

// Membership attribute OIDs (private-arc test OIDs).
var (
	oidVOName = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 1, 1}
	oidVORole = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 1, 2}
)

// ParticipationTicketType is the credential type a membership token
// presents when used as a ticket in later trust negotiations.
const ParticipationTicketType = "VOParticipation"

// MembershipToken is a decoded VO membership certificate: the X.509
// credential a member presents during the VO operational phase. It also
// carries the VO public key ("The membership token contains the public
// key of the VO to be used for authentication in the VO", §5.1).
type MembershipToken struct {
	VO     string
	Role   string
	Member string
	// VOKey is the VO authority's Ed25519 public key, from the issuer
	// certificate.
	VOKey []byte
	// NotBefore/NotAfter delimit validity.
	NotBefore, NotAfter time.Time
	// DER is the raw certificate.
	DER []byte
}

// PEM encodes the token's certificate in PEM form.
func (m *MembershipToken) PEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: m.DER})
}

// VOAuthority mints and verifies X.509 membership tokens for one VO.
// It is created by the VO Initiator during the identification phase.
type VOAuthority struct {
	VO   string
	Keys *KeyPair

	mu     sync.Mutex
	serial int64
	caCert *x509.Certificate
	// roots holds caCert alone. Certificate.Verify only reads it, so
	// every VerifyMembership shares it.
	roots *x509.CertPool
}

// nextSerial allocates the next certificate serial number.
func (a *VOAuthority) nextSerial() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.serial++
	return a.serial
}

// NewVOAuthority creates the VO's certificate authority with a
// self-signed CA certificate.
func NewVOAuthority(voName string) (*VOAuthority, error) {
	kp, err := GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	return newVOAuthority(voName, kp, time.Now())
}

// newVOAuthority creates the authority for voName under kp, its CA
// certificate valid from an hour before now for ten years.
func newVOAuthority(voName string, kp *KeyPair, now time.Time) (*VOAuthority, error) {
	der, err := mint(&certificate{
		serial:    1,
		subject:   name{org: voName, hasOrg: true, cn: "VO CA " + voName},
		notBefore: now.Add(-time.Hour),
		notAfter:  now.Add(10 * 365 * 24 * time.Hour),
		key:       kp.Public,
		usage:     x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		ca:        true,
	}, nil, kp.Private)
	if err != nil {
		return nil, fmt.Errorf("pki: create VO CA: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parse VO CA: %w", err)
	}
	roots := x509.NewCertPool()
	roots.AddCert(cert)
	return &VOAuthority{VO: voName, Keys: kp, serial: 1, caCert: cert, roots: roots}, nil
}

// CACertPEM returns the CA certificate for distribution to members.
func (a *VOAuthority) CACertPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: a.caCert.Raw})
}

// TrustAnchor returns the issuer name and key under which this VO's
// membership tokens verify as participation tickets: other VOs add it
// to their trust stores to accept "tickets attesting … participation"
// in this VO (§5.1).
func (a *VOAuthority) TrustAnchor() (name string, key []byte) {
	return a.caCert.Subject.CommonName, append([]byte(nil), a.Keys.Public...)
}

// IssueMembership mints an X.509 membership token binding member to role
// within the VO, valid for lifetime (default one year when zero). The
// token's times are the certificate's: UTC, whole seconds.
func (a *VOAuthority) IssueMembership(member, role string, lifetime time.Duration) (*MembershipToken, error) {
	if member == "" || role == "" {
		return nil, errors.New("pki: membership needs member and role")
	}
	if lifetime == 0 {
		lifetime = 365 * 24 * time.Hour
	}
	serial := a.nextSerial()

	// The member's certificate key: a fresh key pair would normally be
	// provided by the member via CSR; for membership tokens the subject
	// key is the VO key itself since the token is a capability, not a
	// TLS identity. We mint a distinct subject key to keep X.509
	// semantics honest.
	subjKeys, err := GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	now := time.Now().Add(-time.Minute)
	notBefore := now.UTC().Truncate(time.Second)
	notAfter := now.Add(lifetime).UTC().Truncate(time.Second)
	der, err := a.mintMembership(member, role, serial, subjKeys.Public, notBefore, notAfter)
	if err != nil {
		return nil, err
	}
	return &MembershipToken{
		VO: a.VO, Role: role, Member: member,
		VOKey:     append([]byte(nil), a.Keys.Public...),
		NotBefore: notBefore, NotAfter: notAfter,
		DER: der,
	}, nil
}

// mintMembership writes the membership certificate for member in role
// with the given serial, subject key and validity.
func (a *VOAuthority) mintMembership(member, role string, serial int64, key ed25519.PublicKey, notBefore, notAfter time.Time) ([]byte, error) {
	// The token carries both the membership extensions AND the generic
	// attribute-credential extensions, so it doubles as a participation
	// ticket in later trust negotiations (§5.1: policies "can require …
	// tickets attesting their participation to other VOs").
	der, err := mint(&certificate{
		serial:    serial,
		subject:   name{org: a.VO, hasOrg: true, cn: member},
		notBefore: notBefore,
		notAfter:  notAfter,
		key:       key,
		usage:     x509.KeyUsageDigitalSignature,
		extra: []extension{
			{id: oidVOName, str: a.VO},
			{id: oidVORole, str: role},
			{id: oidAttrCredType, str: ParticipationTicketType},
			{id: oidAttrCredID, str: a.VO + "-ticket-" + strconv.FormatInt(serial, 10)},
			{id: oidAttrContent, kind: extAttrs, attrs: []xtnl.Attribute{
				{Name: "vo", Value: a.VO},
				{Name: "role", Value: role},
				{Name: "member", Value: member},
			}},
		},
	}, a.caCert, a.Keys.Private)
	if err != nil {
		return nil, fmt.Errorf("pki: issue membership: %w", err)
	}
	return der, nil
}

// VerifyMembership parses a membership certificate and verifies that it
// chains to this VO's CA certificate, returning the decoded token.
func (a *VOAuthority) VerifyMembership(der []byte) (*MembershipToken, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parse membership cert: %w", err)
	}
	if _, err := cert.Verify(x509.VerifyOptions{
		Roots:     a.roots,
		KeyUsages: []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}); err != nil {
		return nil, fmt.Errorf("pki: membership chain: %w", err)
	}
	tok := &MembershipToken{
		Member:    cert.Subject.CommonName,
		NotBefore: cert.NotBefore,
		NotAfter:  cert.NotAfter,
		DER:       der,
	}
	if len(cert.Subject.Organization) > 0 {
		tok.VO = cert.Subject.Organization[0]
	}
	for _, ext := range cert.Extensions {
		switch {
		case ext.Id.Equal(oidVOName):
			asn1.Unmarshal(ext.Value, &tok.VO)
		case ext.Id.Equal(oidVORole):
			asn1.Unmarshal(ext.Value, &tok.Role)
		}
	}
	if edKey, ok := a.caCert.PublicKey.(ed25519.PublicKey); ok {
		tok.VOKey = append([]byte(nil), edKey...)
	}
	if tok.Role == "" {
		return nil, errors.New("pki: membership certificate lacks VO role extension")
	}
	return tok, nil
}
