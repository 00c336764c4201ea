package pki

import (
	"crypto/ed25519"
	"encoding/base64"
	"fmt"
	"sync"
	"time"

	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// TrustStore holds the issuer public keys a party trusts directly, plus
// the revocation lists it has retrieved. It verifies credentials —
// signature, validity window, revocation — and resolves trust chains
// through AuthorityDelegation credentials. A TrustStore is safe for
// concurrent use.
type TrustStore struct {
	mu    sync.RWMutex
	roots map[string]ed25519.PublicKey
	crls  map[string]*RevocationList

	// cache memoizes successful Verify/VerifyChain results keyed by
	// issuer + signature; see cache.go for the invalidation contract.
	cache verifyCache

	// MaxChainDepth bounds delegation-chain resolution; 0 means the
	// default of 4 hops.
	MaxChainDepth int

	// DisableCache turns the verification cache off (every call does
	// the full signature work). For A/B benchmarks and paranoid
	// deployments; see cmd/benchjoin -baseline.
	DisableCache bool
}

// NewTrustStore builds a store trusting the given authorities as roots.
func NewTrustStore(roots ...*Authority) *TrustStore {
	ts := &TrustStore{
		roots: make(map[string]ed25519.PublicKey),
		crls:  make(map[string]*RevocationList),
	}
	for _, a := range roots {
		ts.AddRoot(a.Name, a.Keys.Public)
	}
	return ts
}

// AddRoot registers a directly trusted issuer key. Changing the anchor
// set invalidates the verification cache: a cached chain may become
// reachable through (or orphaned by) the new root.
func (ts *TrustStore) AddRoot(name string, pub ed25519.PublicKey) {
	defer ts.cache.invalidate()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.roots[name] = append(ed25519.PublicKey(nil), pub...)
}

// Roots returns the names of the directly trusted issuers.
func (ts *TrustStore) Roots() []string {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	out := make([]string, 0, len(ts.roots))
	for n := range ts.roots {
		out = append(out, n)
	}
	return out
}

// KeyFor returns the trusted key of issuer, if any.
func (ts *TrustStore) KeyFor(issuer string) (ed25519.PublicKey, bool) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	k, ok := ts.roots[issuer]
	return k, ok
}

// AddCRL installs a revocation list after verifying its signature
// against the trusted key of its issuer. Installing a CRL invalidates
// the verification cache (revocation is an input to every cached
// result; the hit path also re-checks IsRevoked defensively).
func (ts *TrustStore) AddCRL(crl *RevocationList) error {
	key, ok := ts.KeyFor(crl.Issuer)
	if !ok {
		return fmt.Errorf("%w: CRL issuer %q", ErrUnknownIssuer, crl.Issuer)
	}
	if err := crl.Verify(key); err != nil {
		return fmt.Errorf("pki: CRL from %s: %w", crl.Issuer, err)
	}
	defer ts.cache.invalidate()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.crls[crl.Issuer] = crl
	return nil
}

// IsRevoked reports whether the credential appears on an installed CRL.
func (ts *TrustStore) IsRevoked(c *xtnl.Credential) bool {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	crl, ok := ts.crls[c.Issuer]
	return ok && crl.Contains(c.ID)
}

// Verify checks the credential at time now: it must be signed by a
// directly trusted issuer, inside its validity window, and absent from
// the issuer's CRL. Successful results are memoized (see cache.go).
func (ts *TrustStore) Verify(c *xtnl.Credential, now time.Time) error {
	if _, ok := ts.cachedVerify(c, now); ok {
		return nil
	}
	key, ok := ts.KeyFor(c.Issuer)
	if !ok {
		return fmt.Errorf("%w: %q (credential %s)", ErrUnknownIssuer, c.Issuer, c.ID)
	}
	if err := ts.verifyWithKey(c, key, now); err != nil {
		return err
	}
	ts.rememberVerify(c, nil)
	return nil
}

func (ts *TrustStore) verifyWithKey(c *xtnl.Credential, key ed25519.PublicKey, now time.Time) error {
	if len(c.Signature) == 0 {
		return fmt.Errorf("%w: credential %s", ErrUnsigned, c.ID)
	}
	if !ed25519.Verify(key, c.SignedBytes(), c.Signature) {
		return fmt.Errorf("%w: credential %s from %s", ErrBadSignature, c.ID, c.Issuer)
	}
	if !c.ValidAt(now) {
		return fmt.Errorf("%w: credential %s (valid %s..%s, now %s)", ErrExpired,
			c.ID, c.ValidFrom.Format(xtnl.TimeLayout), c.ValidUntil.Format(xtnl.TimeLayout), now.UTC().Format(xtnl.TimeLayout))
	}
	if ts.IsRevoked(c) {
		return fmt.Errorf("%w: credential %s", ErrRevoked, c.ID)
	}
	return nil
}

// VerifyChain verifies a credential whose issuer may not be directly
// trusted, using the supporting pool of AuthorityDelegation credentials
// to build a chain up to a trusted root. It returns the chain of
// delegation credentials used (empty when the issuer is a root).
func (ts *TrustStore) VerifyChain(c *xtnl.Credential, pool []*xtnl.Credential, now time.Time) ([]*xtnl.Credential, error) {
	chain, _, err := ts.verifyChain(c, pool, now)
	return chain, err
}

// VerifyChainDOM is VerifyChain that also returns c's document tree
// (c.DOM()) for evaluating terms' conditions: the cache entry's tree,
// built once per entry from the entry's own copy of c, or a tree of c
// alone when c has no entry. The tree is shared and must not be
// modified.
func (ts *TrustStore) VerifyChainDOM(c *xtnl.Credential, pool []*xtnl.Credential, now time.Time) ([]*xtnl.Credential, *xmldom.Node, error) {
	chain, e, err := ts.verifyChain(c, pool, now)
	if err != nil {
		return nil, nil, err
	}
	if e == nil {
		return chain, c.DOM(), nil
	}
	return chain, e.tree(), nil
}

// verifyChain is VerifyChain, returning as well the cache entry that
// records the success, nil when c cannot have one.
func (ts *TrustStore) verifyChain(c *xtnl.Credential, pool []*xtnl.Credential, now time.Time) ([]*xtnl.Credential, *verifyCacheEntry, error) {
	if e, ok := ts.cachedVerify(c, now); ok {
		return e.chain, e, nil
	}
	maxDepth := ts.MaxChainDepth
	if maxDepth == 0 {
		maxDepth = 4
	}
	// Fast path: direct trust.
	if key, ok := ts.KeyFor(c.Issuer); ok {
		if err := ts.verifyWithKey(c, key, now); err != nil {
			return nil, nil, err
		}
		return nil, ts.rememberVerify(c, nil), nil
	}
	// Search the pool for a delegation credential naming c.Issuer whose
	// own issuer is trusted (directly or recursively).
	var resolve func(issuer string, depth int, visiting map[string]bool) (ed25519.PublicKey, []*xtnl.Credential, error)
	resolve = func(issuer string, depth int, visiting map[string]bool) (ed25519.PublicKey, []*xtnl.Credential, error) {
		if key, ok := ts.KeyFor(issuer); ok {
			return key, nil, nil
		}
		if depth >= maxDepth {
			return nil, nil, fmt.Errorf("%w: delegation chain deeper than %d", ErrNoChain, maxDepth)
		}
		if visiting[issuer] {
			return nil, nil, fmt.Errorf("%w: delegation cycle at %q", ErrNoChain, issuer)
		}
		visiting[issuer] = true
		defer delete(visiting, issuer)
		var firstErr error
		for _, d := range pool {
			if d.Type != DelegationType {
				continue
			}
			name, _ := d.Attr("authorityName")
			if name != issuer {
				continue
			}
			parentKey, chain, err := resolve(d.Issuer, depth+1, visiting)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if err := ts.verifyWithKey(d, parentKey, now); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			keyB64, _ := d.Attr("authorityKey")
			key, err := base64.StdEncoding.DecodeString(keyB64)
			if err != nil || len(key) != ed25519.PublicKeySize {
				if firstErr == nil {
					firstErr = fmt.Errorf("pki: delegation %s has invalid authorityKey", d.ID)
				}
				continue
			}
			return ed25519.PublicKey(key), append(chain, d), nil
		}
		if firstErr != nil {
			return nil, nil, firstErr
		}
		return nil, nil, fmt.Errorf("%w: no delegation for issuer %q", ErrNoChain, issuer)
	}
	key, chain, err := resolve(c.Issuer, 0, map[string]bool{})
	if err != nil {
		return nil, nil, err
	}
	if err := ts.verifyWithKey(c, key, now); err != nil {
		return nil, nil, err
	}
	return chain, ts.rememberVerify(c, chain), nil
}

// ---- ownership proof (challenge/response) ----

// NonceSize is the length of a challenge nonce.
const NonceSize = 24

// NewNonce returns a fresh random challenge of NonceSize bytes.
func NewNonce() ([]byte, error) {
	var n [NonceSize]byte
	if err := ReadNonce(&n); err != nil {
		return nil, err
	}
	return n[:], nil
}

// ReadNonce fills n with a fresh random challenge, for a caller that
// keeps its nonce in place.
func ReadNonce(n *[NonceSize]byte) error {
	if _, err := randRead(n[:]); err != nil {
		return fmt.Errorf("pki: nonce: %w", err)
	}
	return nil
}

// ownershipPrefix starts the message an ownership proof signs.
const ownershipPrefix = "trustvo-ownership:"

// ownershipMessage returns the message an ownership proof over nonce
// signs, in buf when it fits.
func ownershipMessage(buf *[len(ownershipPrefix) + NonceSize]byte, nonce []byte) []byte {
	return append(append(buf[:0], ownershipPrefix...), nonce...)
}

// ProveOwnership signs the nonce with the holder's private key. The
// counterpart checks the signature against the credential's embedded
// holder key via VerifyOwnership.
func ProveOwnership(holder *KeyPair, nonce []byte) []byte {
	var buf [len(ownershipPrefix) + NonceSize]byte
	return holder.Sign(ownershipMessage(&buf, nonce))
}

// VerifyOwnership checks an ownership proof for the credential: the
// credential must embed a holder key, and proof must be that key's
// signature over the nonce.
func VerifyOwnership(c *xtnl.Credential, nonce, proof []byte) error {
	if len(c.HolderKey) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: credential %s has no holder key", ErrOwnershipFailed, c.ID)
	}
	var buf [len(ownershipPrefix) + NonceSize]byte
	if !ed25519.Verify(ed25519.PublicKey(c.HolderKey), ownershipMessage(&buf, nonce), proof) {
		return fmt.Errorf("%w: credential %s", ErrOwnershipFailed, c.ID)
	}
	return nil
}
