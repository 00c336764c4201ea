package pki

import (
	"crypto/ed25519"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"time"

	"trustvo/internal/xtnl"
)

// The references: how pki read certificates before it read them
// itself, through crypto/x509's parser and chain check.
// FuzzReadCertificate requires that whatever readCertificate accepts,
// these accept with the same fields.

// refVerifyMembership is VOAuthority.VerifyMembership as crypto/x509
// did it: parse the token and verify its chain to the VO CA.
func refVerifyMembership(a *VOAuthority, der []byte) (*MembershipToken, error) {
	caCert, err := x509.ParseCertificate(a.ca.der)
	if err != nil {
		return nil, fmt.Errorf("pki: parse VO CA: %w", err)
	}
	roots := x509.NewCertPool()
	roots.AddCert(caCert)
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parse membership cert: %w", err)
	}
	if _, err := cert.Verify(x509.VerifyOptions{
		Roots:     roots,
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
	if edKey, ok := caCert.PublicKey.(ed25519.PublicKey); ok {
		tok.VOKey = append([]byte(nil), edKey...)
	}
	if tok.Role == "" {
		return nil, errors.New("pki: membership certificate lacks VO role extension")
	}
	return tok, nil
}

// refDecodeX509Attribute is DecodeX509Attribute through crypto/x509.
func refDecodeX509Attribute(der []byte) (*xtnl.Credential, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parse x509 attribute cert: %w", err)
	}
	return refAttributeCredential(cert)
}

// refAttributeCredential reads the credential a parsed attribute
// certificate carries.
func refAttributeCredential(cert *x509.Certificate) (*xtnl.Credential, error) {
	cred := &xtnl.Credential{
		Holder:     cert.Subject.CommonName,
		Issuer:     cert.Issuer.CommonName,
		ValidFrom:  cert.NotBefore.UTC().Truncate(time.Second),
		ValidUntil: cert.NotAfter.UTC().Truncate(time.Second),
	}
	for _, ext := range cert.Extensions {
		switch {
		case ext.Id.Equal(oidAttrCredType):
			asn1.Unmarshal(ext.Value, &cred.Type)
		case ext.Id.Equal(oidAttrCredID):
			asn1.Unmarshal(ext.Value, &cred.ID)
		case ext.Id.Equal(oidAttrSens):
			var s string
			asn1.Unmarshal(ext.Value, &s)
			cred.Sensitivity = xtnl.ParseSensitivity(s)
		case ext.Id.Equal(oidAttrHolderKey):
			cred.HolderKey = append([]byte(nil), ext.Value...)
		case ext.Id.Equal(oidAttrContent):
			var attrs []xtnl.Attribute
			if _, err := asn1.Unmarshal(ext.Value, &attrs); err != nil {
				return nil, fmt.Errorf("pki: decode attributes: %w", err)
			}
			cred.Attributes = append(cred.Attributes, attrs...)
		}
	}
	if cred.Type == "" {
		return nil, errors.New("pki: x509 certificate is not an attribute credential (no credType extension)")
	}
	return cred, nil
}

// refVerifyX509Attribute is TrustStore.VerifyX509Attribute through
// crypto/x509, which checked the signature before the validity window.
func refVerifyX509Attribute(ts *TrustStore, der []byte, now time.Time) (*xtnl.Credential, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parse x509 attribute cert: %w", err)
	}
	cred, err := refAttributeCredential(cert)
	if err != nil {
		return nil, err
	}
	key, ok := ts.KeyFor(cred.Issuer)
	if !ok {
		return nil, fmt.Errorf("%w: %q (x509 credential %s)", ErrUnknownIssuer, cred.Issuer, cred.ID)
	}
	if cert.SignatureAlgorithm != x509.PureEd25519 ||
		!ed25519.Verify(key, cert.RawTBSCertificate, cert.Signature) {
		return nil, fmt.Errorf("%w: x509 credential %s from %s", ErrBadSignature, cred.ID, cred.Issuer)
	}
	if now.Before(cert.NotBefore) || now.After(cert.NotAfter) {
		return nil, fmt.Errorf("%w: x509 credential %s", ErrExpired, cred.ID)
	}
	if ts.IsRevoked(cred) {
		return nil, fmt.Errorf("%w: x509 credential %s", ErrRevoked, cred.ID)
	}
	return cred, nil
}
