package pki

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	entries       map[string]*verifyCacheEntry
	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

func cacheKey(c *xtnl.Credential) string {
	return c.Issuer + "\x00" + string(c.Signature)
}

func (vc *verifyCache) lookup(key string) (*verifyCacheEntry, bool) {
	vc.mu.RLock()
	defer vc.mu.RUnlock()
	e, ok := vc.entries[key]
	return e, ok
}

func (vc *verifyCache) store(key string, e *verifyCacheEntry) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if len(vc.entries) >= verifyCacheLimit {
		vc.entries = nil
		vc.invalidations.Add(1)
	}
	if vc.entries == nil {
		vc.entries = make(map[string]*verifyCacheEntry)
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

// cachedVerify returns the memoized chain for c when a previous success
// is still valid at now (validity windows and revocation are re-checked
// on every hit; only the signature work is skipped).
func (ts *TrustStore) cachedVerify(c *xtnl.Credential, now time.Time) ([]*xtnl.Credential, bool) {
	if ts.DisableCache || len(c.Signature) == 0 {
		return nil, false
	}
	e, ok := ts.cache.lookup(cacheKey(c))
	if !ok {
		ts.cache.misses.Add(1)
		return nil, false
	}
	if !bytes.Equal(c.SignedBytes(), e.signedBytes) {
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
	return e.chain, true
}

// rememberVerify memoizes a successful verification.
func (ts *TrustStore) rememberVerify(c *xtnl.Credential, chain []*xtnl.Credential) {
	if ts.DisableCache || len(c.Signature) == 0 {
		return
	}
	entry := &verifyCacheEntry{cred: detach(c), signedBytes: c.SignedBytes()}
	for _, link := range chain {
		entry.chain = append(entry.chain, detach(link))
	}
	ts.cache.store(cacheKey(c), entry)
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
