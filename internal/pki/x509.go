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
	ca     caCert
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
	ca, err := mintCA(&certificate{
		serial:    1,
		subject:   name{org: voName, hasOrg: true, cn: "VO CA " + voName},
		notBefore: now.Add(-time.Hour),
		notAfter:  now.Add(10 * 365 * 24 * time.Hour),
		key:       kp.Public,
		usage:     x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		ca:        true,
	}, kp.Private)
	if err != nil {
		return nil, fmt.Errorf("pki: create VO CA: %w", err)
	}
	return &VOAuthority{VO: voName, Keys: kp, serial: 1, ca: ca}, nil
}

// CACertPEM returns the CA certificate for distribution to members.
func (a *VOAuthority) CACertPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: a.ca.der})
}

// TrustAnchor returns the issuer name and key under which this VO's
// membership tokens verify as participation tickets: other VOs add it
// to their trust stores to accept "tickets attesting … participation"
// in this VO (§5.1).
func (a *VOAuthority) TrustAnchor() (name string, key []byte) {
	return a.ca.subject.cn, append([]byte(nil), a.Keys.Public...)
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
	}, &a.ca, a.Keys.Private)
	if err != nil {
		return nil, fmt.Errorf("pki: issue membership: %w", err)
	}
	return der, nil
}

// VerifyMembership reads a membership certificate and verifies that this
// VO's CA issued it, returning the decoded token. The certificate must
// be a membership token exactly as mint writes it; then its issuer must
// be this VO's CA (ErrUnknownIssuer), it and the CA must be inside their
// validity windows (ErrExpired), and its Ed25519 signature must verify
// under the CA's key (ErrBadSignature), checked in that order. The
// token's strings share one copy of the certificate's TBSCertificate.
func (a *VOAuthority) VerifyMembership(der []byte) (*MembershipToken, error) {
	rc, err := readCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: read membership cert: %w", err)
	}
	defer rc.release()
	if rc.layout != layoutMembership {
		return nil, errors.New("pki: certificate is not a membership token")
	}
	ca := &a.ca
	if !rc.issuedBy(ca.subject, ca.keyID[:]) {
		return nil, fmt.Errorf("%w: membership token of %s issued by %q, not by this VO's CA", ErrUnknownIssuer, rc.subject.cn, rc.issuer.cn)
	}
	now := time.Now()
	if !rc.within(now) || now.Before(ca.notBefore) || now.After(ca.notAfter) {
		return nil, fmt.Errorf("%w: membership token of %s", ErrExpired, rc.subject.cn)
	}
	if !ed25519.Verify(ca.key, rc.tbs, rc.sig) {
		return nil, fmt.Errorf("%w: membership token of %s", ErrBadSignature, rc.subject.cn)
	}
	// membershipExtensions: the VO name and the role come first.
	tok := &MembershipToken{
		VO:        rc.extra[0].str,
		Role:      rc.extra[1].str,
		Member:    rc.subject.cn,
		VOKey:     append([]byte(nil), ca.key...),
		NotBefore: rc.notBefore,
		NotAfter:  rc.notAfter,
		DER:       der,
	}
	if tok.Role == "" {
		return nil, errors.New("pki: membership certificate names no VO role")
	}
	return tok, nil
}
