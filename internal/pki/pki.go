// Package pki provides the credential-authority substrate of the
// reproduction: key pairs, credential issuance and signing, revocation
// lists, trust stores with credential-chain resolution, ownership proofs,
// and the X.509 bridge used for VO membership tokens (paper §6.3).
//
// The paper's prototype verified credentials "using credential issuers'
// public keys", checked "for revocation and validity dates", and
// authenticated "the ownership (for credentials)" (§4.2). Signatures here
// are Ed25519 over the canonical XML bytes of a credential with its
// <signature> element removed (xtnl.Credential.SignedBytes).
package pki

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"trustvo/internal/xtnl"
)

// randRead fills b with cryptographic randomness (indirection point for
// the whole package).
func randRead(b []byte) (int, error) { return rand.Read(b) }

// KeyPair is an Ed25519 signing key with its public half. Its seal keys
// (sealed.go) are derived from the private key on first use; set the
// key before that and do not copy the pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey

	sealOnce sync.Once
	seal     *sealKeys // nil when Private is not an Ed25519 private key
}

// GenerateKeyPair creates a fresh random key pair.
func GenerateKeyPair() (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pki: generate key: %w", err)
	}
	return &KeyPair{Public: pub, Private: priv}, nil
}

// MustGenerateKeyPair is GenerateKeyPair that panics on failure, for
// fixtures and examples.
func MustGenerateKeyPair() *KeyPair {
	kp, err := GenerateKeyPair()
	if err != nil {
		panic(err)
	}
	return kp
}

// Sign returns the Ed25519 signature of msg.
func (k *KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.Private, msg)
}

// Errors reported by verification.
var (
	ErrUnknownIssuer   = errors.New("pki: unknown issuer")
	ErrBadSignature    = errors.New("pki: signature verification failed")
	ErrExpired         = errors.New("pki: credential outside validity window")
	ErrRevoked         = errors.New("pki: credential revoked")
	ErrUnsigned        = errors.New("pki: credential carries no signature")
	ErrOwnershipFailed = errors.New("pki: ownership proof failed")
	ErrNoChain         = errors.New("pki: no trust chain to a trusted root")
)

// Authority is a Credential Authority (CA): it issues signed X-TNL
// credentials, tracks serial numbers, and maintains a revocation list.
// An Authority is safe for concurrent use.
type Authority struct {
	Name string
	Keys *KeyPair

	mu      sync.Mutex
	serial  uint64
	revoked map[string]time.Time // credential ID -> revocation time

	x509 x509State // the X.509 CA, minted on first use (x509attr.go)
}

// nextSerial allocates the next credential serial number.
func (a *Authority) nextSerial() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.serial++
	return a.serial
}

// NewAuthority creates a CA with a fresh key pair.
func NewAuthority(name string) (*Authority, error) {
	kp, err := GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	return &Authority{Name: name, Keys: kp, revoked: make(map[string]time.Time)}, nil
}

// MustNewAuthority is NewAuthority that panics on failure.
func MustNewAuthority(name string) *Authority {
	a, err := NewAuthority(name)
	if err != nil {
		panic(err)
	}
	return a
}

// IssueRequest describes the credential an Authority should mint.
type IssueRequest struct {
	Type        string
	Holder      string
	HolderKey   ed25519.PublicKey // optional, enables ownership proofs
	Attributes  []xtnl.Attribute
	Sensitivity xtnl.Sensitivity
	ValidFrom   time.Time     // zero means now
	Lifetime    time.Duration // zero means one year
}

// Issue mints and signs a credential. The credential ID embeds the
// authority name and a serial number plus random suffix, so IDs are
// unique across authorities. A credential that would not survive the
// wire is refused before signing, with an error wrapping
// *xtnl.EncodeError (see Credential.CheckWire).
func (a *Authority) Issue(req IssueRequest) (*xtnl.Credential, error) {
	if req.Type == "" {
		return nil, errors.New("pki: issue: empty credential type")
	}
	from := req.ValidFrom
	if from.IsZero() {
		from = time.Now().UTC().Truncate(time.Second)
	}
	life := req.Lifetime
	if life == 0 {
		life = 365 * 24 * time.Hour
	}
	serial := a.nextSerial()

	var rnd [4]byte
	if _, err := rand.Read(rnd[:]); err != nil {
		return nil, fmt.Errorf("pki: issue: %w", err)
	}
	cred := &xtnl.Credential{
		ID:          fmt.Sprintf("%s-%d-%s", a.Name, serial, hex.EncodeToString(rnd[:])),
		Type:        req.Type,
		Issuer:      a.Name,
		Holder:      req.Holder,
		HolderKey:   append([]byte(nil), req.HolderKey...),
		ValidFrom:   from,
		ValidUntil:  from.Add(life),
		Sensitivity: req.Sensitivity,
		Attributes:  append([]xtnl.Attribute(nil), req.Attributes...),
	}
	if err := cred.CheckWire(); err != nil {
		return nil, fmt.Errorf("pki: issue: %w", err)
	}
	cred.Signature = a.Keys.Sign(cred.SignedBytes())
	return cred, nil
}

// MustIssue is Issue that panics on failure, for fixtures.
func (a *Authority) MustIssue(req IssueRequest) *xtnl.Credential {
	c, err := a.Issue(req)
	if err != nil {
		panic(err)
	}
	return c
}

// Revoke adds the credential ID to the authority's revocation list.
func (a *Authority) Revoke(credID string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.revoked == nil {
		a.revoked = make(map[string]time.Time)
	}
	a.revoked[credID] = time.Now().UTC()
}

// CRL returns a signed snapshot of the authority's revocation list.
func (a *Authority) CRL() *RevocationList {
	a.mu.Lock() //lint:allow nakedlock snapshot revoked IDs; signing below runs unlocked
	ids := make([]string, 0, len(a.revoked))
	for id := range a.revoked {
		ids = append(ids, id)
	}
	a.mu.Unlock()
	crl := &RevocationList{Issuer: a.Name, IssuedAt: time.Now().UTC(), Revoked: ids}
	crl.Signature = a.Keys.Sign(crl.signedBytes())
	return crl
}

// RevocationList is a signed list of revoked credential IDs.
type RevocationList struct {
	Issuer    string
	IssuedAt  time.Time
	Revoked   []string
	Signature []byte
}

func (r *RevocationList) signedBytes() []byte {
	s := r.Issuer + "|" + r.IssuedAt.Format(time.RFC3339)
	for _, id := range r.Revoked {
		s += "|" + id
	}
	return []byte(s)
}

// Verify checks the CRL signature against the issuer's public key.
func (r *RevocationList) Verify(pub ed25519.PublicKey) error {
	if !ed25519.Verify(pub, r.signedBytes(), r.Signature) {
		return ErrBadSignature
	}
	return nil
}

// Contains reports whether the credential ID is revoked.
func (r *RevocationList) Contains(credID string) bool {
	for _, id := range r.Revoked {
		if id == credID {
			return true
		}
	}
	return false
}

// DelegationType is the credential type that authority-delegation
// credentials carry. A delegation credential, issued by a trusted (or
// transitively delegated) authority, states the name and public key of
// another authority, extending the trust chain (paper §4.2: credentials
// "not immediately available" are retrieved "through credentials chains").
const DelegationType = "AuthorityDelegation"

// Delegate issues a delegation credential for the target authority,
// binding its name to its public key.
func (a *Authority) Delegate(target *Authority, lifetime time.Duration) (*xtnl.Credential, error) {
	return a.Issue(IssueRequest{
		Type:   DelegationType,
		Holder: target.Name,
		Attributes: []xtnl.Attribute{
			{Name: "authorityName", Value: target.Name},
			{Name: "authorityKey", Value: base64.StdEncoding.EncodeToString(target.Keys.Public)},
		},
		Sensitivity: xtnl.SensitivityLow,
		Lifetime:    lifetime,
	})
}
