package pki

import (
	"crypto/ed25519"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// Verification memoization.
//
// Concurrent joins verify the same credentials over and over: every
// exchange re-checks the counterpart's signature and, for non-root
// issuers, re-resolves the whole delegation chain. Both are pure
// functions of (credential bytes, trust anchors, CRLs) — so a cache
// keyed by issuer + signature (the signature covers the credential's
// canonical bytes, making it a collision-free fingerprint of the
// content) can skip the ed25519 work entirely on repeat verifications.
//
// A hit allocates nothing: the key is the issuer and the 64-byte
// signature in an array, the presented credential is written through a
// comparing xmldom sink against the signed bytes the entry keeps
// (xmldom.Writes), and a term's conditions are evaluated against the
// entry's condition tree, built once from the entry's own copy.
//
// Invalidation contract:
//
//   - AddRoot / AddCRL drop the whole cache: trust anchors and
//     revocation state are inputs to every cached result.
//   - Expiry is re-checked on every hit: a cached success stores the
//     credential and its chain, and the hit path re-validates each
//     validity window against the caller's "now" plus the CRL maps, so
//     a credential (or chain link) that expires or is revoked after
//     being cached never verifies again.
//   - Only successes are cached. Failures may be transient (a chain
//     link arriving in a later pool) and are cheap to recompute.

// verifyCacheLimit bounds the cache; past it the map is dropped
// wholesale. Disclosed credentials come from counterparts, so an
// unbounded map would let an adversary grow server memory one signed
// credential at a time.
const verifyCacheLimit = 4096

type verifyCacheEntry struct {
	cred *xtnl.Credential // the verified credential (validity re-check)
	// signedBytes is the canonical content the signature covered when
	// the entry was created. A hit must present identical bytes:
	// otherwise a credential carrying a genuine signature over DIFFERENT
	// content (a tamper attempt that would fail ed25519.Verify) could
	// ride a cache hit past verification.
	signedBytes []byte
	chain       []*xtnl.Credential // delegation chain used; nil for direct trust
	// dom is cred's document tree, for evaluating terms' conditions;
	// built from cred on first use, read-only and shared after.
	dom atomic.Pointer[xmldom.Node]
}

// tree returns the entry's condition tree, building it on first use.
func (e *verifyCacheEntry) tree() *xmldom.Node {
	if d := e.dom.Load(); d != nil {
		return d
	}
	e.dom.CompareAndSwap(nil, e.cred.DOM())
	return e.dom.Load()
}

// verifyKey is a cache key: the issuer and the signature.
type verifyKey struct {
	issuer string
	sig    [ed25519.SignatureSize]byte
}

// CacheStats is a snapshot of the verification cache counters, the
// hit/miss telemetry behind the concurrent-join throughput path (see
// cmd/benchjoin -concurrency).
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Entries       int   `json:"entries"`
	Invalidations int64 `json:"invalidations"`
}

// verifyCache is the memo table embedded in TrustStore. Its mutex is
// separate from the store's so a cache insert never contends with root
// or CRL lookups.
type verifyCache struct {
	mu            sync.RWMutex
	entries       map[verifyKey]*verifyCacheEntry
	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

// cacheKey is c's key; only a credential whose signature has
// ed25519.SignatureSize bytes can have verified.
func cacheKey(c *xtnl.Credential) verifyKey {
	k := verifyKey{issuer: c.Issuer}
	copy(k.sig[:], c.Signature)
	return k
}

func (vc *verifyCache) lookup(key verifyKey) (*verifyCacheEntry, bool) {
	vc.mu.RLock()
	defer vc.mu.RUnlock()
	e, ok := vc.entries[key]
	return e, ok
}

func (vc *verifyCache) store(key verifyKey, e *verifyCacheEntry) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if len(vc.entries) >= verifyCacheLimit {
		vc.entries = nil
		vc.invalidations.Add(1)
	}
	if vc.entries == nil {
		vc.entries = make(map[verifyKey]*verifyCacheEntry)
	}
	vc.entries[key] = e
}

// invalidate drops every entry; called whenever trust inputs change.
func (vc *verifyCache) invalidate() {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.entries = nil
	vc.invalidations.Add(1)
}

// cacheable reports whether c can have a cache entry: the cache is on
// and c carries a signature of the size ed25519 verifies.
func (ts *TrustStore) cacheable(c *xtnl.Credential) bool {
	return !ts.DisableCache && len(c.Signature) == ed25519.SignatureSize
}

// cachedVerify returns the memoized entry for c when a previous success
// is still valid at now (validity windows and revocation are re-checked
// on every hit; only the signature work is skipped).
func (ts *TrustStore) cachedVerify(c *xtnl.Credential, now time.Time) (*verifyCacheEntry, bool) {
	if !ts.cacheable(c) {
		return nil, false
	}
	e, ok := ts.cache.lookup(cacheKey(c))
	if !ok {
		ts.cache.misses.Add(1)
		return nil, false
	}
	if !c.WritesSignedBytes(e.signedBytes) {
		ts.cache.misses.Add(1)
		return nil, false
	}
	if !e.cred.ValidAt(now) || ts.IsRevoked(e.cred) {
		ts.cache.misses.Add(1)
		return nil, false
	}
	for _, link := range e.chain {
		if !link.ValidAt(now) || ts.IsRevoked(link) {
			ts.cache.misses.Add(1)
			return nil, false
		}
	}
	ts.cache.hits.Add(1)
	return e, true
}

// rememberVerify memoizes a successful verification and returns the
// entry, nil when c cannot have one.
func (ts *TrustStore) rememberVerify(c *xtnl.Credential, chain []*xtnl.Credential) *verifyCacheEntry {
	if !ts.cacheable(c) {
		return nil
	}
	entry := &verifyCacheEntry{cred: detach(c), signedBytes: c.SignedBytes()}
	for _, link := range chain {
		entry.chain = append(entry.chain, detach(link))
	}
	ts.cache.store(cacheKey(entry.cred), entry)
	return entry
}

// detach returns a copy of c that shares no memory with the message it
// was decoded from: a parsed credential's strings are substrings of the
// whole message (see package xmldom), which a cache entry would
// otherwise keep alive.
func detach(c *xtnl.Credential) *xtnl.Credential {
	d := c.Clone()
	d.ID, d.Type = strings.Clone(c.ID), strings.Clone(c.Type)
	d.Issuer, d.Holder = strings.Clone(c.Issuer), strings.Clone(c.Holder)
	for i, a := range c.Attributes {
		d.Attributes[i] = xtnl.Attribute{Name: strings.Clone(a.Name), Value: strings.Clone(a.Value)}
	}
	return d
}

// CacheStats snapshots the verification-cache counters.
func (ts *TrustStore) CacheStats() CacheStats {
	ts.cache.mu.RLock()
	defer ts.cache.mu.RUnlock()
	return CacheStats{
		Hits:          ts.cache.hits.Load(),
		Misses:        ts.cache.misses.Load(),
		Entries:       len(ts.cache.entries),
		Invalidations: ts.cache.invalidations.Load(),
	}
}
