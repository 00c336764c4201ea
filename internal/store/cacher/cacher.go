// Package cacher layers a request-coalescing read-through TTL cache over
// a *store.Store. It exists for the hot reads of a trust-negotiation
// server — party profiles, disclosure policies, ontologies — where many
// concurrent sessions ask for the same records: with singleflight
// semantics, N concurrent readers of one key share ONE store fetch
// (O(keys) instead of O(requests) backend load, the coalescing argument
// GEM makes for distributed goal evaluation). A fill caches the store's
// records as they are, parsing nothing: each consumer decodes the bytes
// it reads.
//
// Consistency comes from three cooperating mechanisms:
//
//   - invalidation: the cache registers a store.Observe listener, so every
//     committed batch — including cluster replication applies, which go
//     through the normal write path — drops the affected kinds' entries
//     before the writer is even acknowledged to the replication gate's
//     caller. A fill that was in flight when the invalidation arrived is
//     delivered to the readers already waiting on it (they raced the
//     write and may see either side) but is NOT installed: a stale fill
//     always loses to a newer invalidation.
//   - generation check: each entry records store.KindGeneration for its
//     kind at fill time and a hit revalidates it with one counter read,
//     so even a hypothetically missed invalidation cannot serve a record
//     from before a committed write.
//   - TTL: entries expire after a configurable age, bounding memory and
//     acting as the outermost safety net. An expired hit refetches;
//     concurrent readers at the expiry edge coalesce onto the refetch.
//
// The returned records are shared between all consumers of a fill and
// must be treated as read-only: a record is immutable, but a consumer
// could still assign to its fields. The store's own read path hands out
// copies so that such a caller cannot corrupt it; the cache trades that
// isolation for zero-copy hits and documents the contract instead.
package cacher

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trustvo/internal/store"
	"trustvo/internal/telemetry"
)

// Cache is a read-through singleflight cache over one store. Safe for
// concurrent use. The zero value is not usable; call New.
type Cache struct {
	db  *store.Store
	ttl time.Duration

	// now is the clock (replaced in tests to drive expiry).
	now func() time.Time

	mu      sync.Mutex
	entries map[string]*entry

	hits          atomic.Uint64
	misses        atomic.Uint64
	coalesced     atomic.Uint64
	invalidations atomic.Uint64

	metrics atomic.Pointer[cacheMetrics]
}

// entry is one cache slot: in flight until ready is closed, then filled.
type entry struct {
	kind string

	ready chan struct{} // closed when the fill completes

	// Everything below is written once by the filling goroutine before
	// ready is closed, and only read afterwards.
	recs    []*store.Record
	err     error
	gen     uint64
	expires time.Time
}

// DefaultTTL is the TTL applied when New is given a non-positive one.
const DefaultTTL = time.Second

// New builds a cache over db and registers its invalidation listener.
// A cache is permanently attached to its store (store observers cannot
// be removed); create it once per store, next to Open.
func New(db *store.Store, ttl time.Duration) *Cache {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	c := &Cache{
		db:      db,
		ttl:     ttl,
		now:     time.Now,
		entries: make(map[string]*entry),
	}
	db.Observe(c.onCommit)
	return c
}

// onCommit is the store.Observe listener: drop every entry of a kind the
// batch touched. Removing an in-flight entry detaches its fill — the
// readers already waiting on it are served, but the fill is never
// consulted by a later lookup.
func (c *Cache) onCommit(entries []store.Entry) {
	kinds := make(map[string]bool, 1)
	for _, e := range entries {
		kinds[e.Kind] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.entries {
		if kinds[e.kind] {
			delete(c.entries, key)
			c.invalidations.Add(1)
			c.met().invalidations.Inc()
		}
	}
}

const (
	opGet  = "g"
	opList = "l"
)

func slotKey(op, kind, key string) string { return op + "\x00" + kind + "\x00" + key }

// lookup implements the singleflight read-through protocol for one slot.
// fetch runs at most once per concurrent group, outside every lock.
func (c *Cache) lookup(slot, kind string, fetch func() ([]*store.Record, error)) ([]*store.Record, error) {
	c.mu.Lock() //lint:allow nakedlock every branch unlocks before blocking on the fill
	if e, ok := c.entries[slot]; ok {
		select {
		case <-e.ready:
			// Filled: a hit must still be younger than the TTL and the
			// kind's current generation (one counter read).
			if c.now().Before(e.expires) && c.db.KindGeneration(kind) == e.gen {
				c.mu.Unlock()
				c.hits.Add(1)
				c.met().hits.Inc()
				return e.recs, e.err
			}
			// Expired or superseded: this goroutine becomes the refetcher;
			// concurrent readers arriving behind it coalesce onto the
			// fresh in-flight entry it installs below (no dogpile at the
			// TTL edge).
			delete(c.entries, slot)
		default:
			// In flight: wait for the filler. The fill observed a state no
			// older than this reader's arrival, so sharing it is
			// linearizable even if the entry is invalidated while we wait
			// (the reader raced the write).
			c.mu.Unlock()
			c.coalesced.Add(1)
			c.met().coalesced.Inc()
			<-e.ready
			return e.recs, e.err
		}
	}
	e := &entry{kind: kind, ready: make(chan struct{})}
	c.entries[slot] = e
	c.mu.Unlock()

	// Yield between publishing the in-flight entry and running the fetch:
	// readers that arrived together with this one get to register on the
	// fill (the whole point of singleflight) instead of serializing behind
	// it, which is otherwise what happens on a saturated or single-P
	// scheduler where a CPU-bound fetch is never preempted.
	runtime.Gosched()

	c.misses.Add(1)
	c.met().misses.Inc()
	// Order matters: read the generation BEFORE the fetch. If a write
	// commits in between, the recorded generation is outdated and the
	// next hit's revalidation refetches — fail-safe, never stale.
	e.gen = c.db.KindGeneration(kind)
	e.recs, e.err = fetch()
	e.expires = c.now().Add(c.ttl)

	// An invalidation that arrived while the fetch ran removed the slot
	// (or a later reader already installed a fresh entry in it): the fill
	// is delivered to the waiters coalesced on it, but stays uncached — a
	// stale fill loses to a newer invalidation. Nothing to do here: the
	// slot is only still ours if no invalidation fired.
	close(e.ready)
	return e.recs, e.err
}

// Get is a read-through store.Get. The record is shared — read-only.
func (c *Cache) Get(kind, key string) (*store.Record, error) {
	recs, err := c.lookup(slotKey(opGet, kind, key), kind, func() ([]*store.Record, error) {
		rec, err := c.db.Get(kind, key)
		if err != nil {
			return nil, err
		}
		return []*store.Record{rec}, nil
	})
	if err != nil {
		return nil, err
	}
	return recs[0], nil
}

// List is a read-through store.List. The records are shared — read-only.
func (c *Cache) List(kind string) []*store.Record {
	recs, _ := c.lookup(slotKey(opList, kind, ""), kind, func() ([]*store.Record, error) {
		return c.db.List(kind), nil
	})
	return recs
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits served from a filled entry; Misses ran the store fetch;
	// Coalesced waited on another reader's in-flight fetch instead of
	// running their own; Invalidations dropped entries on commits.
	Hits, Misses, Coalesced, Invalidations uint64
}

// Stats returns the current counter values.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// Len returns how many slots are currently cached or in flight.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// cacheMetrics is the telemetry counter set (nil-safe, like the store's).
type cacheMetrics struct {
	hits          *telemetry.Counter // store_cache_hits_total
	misses        *telemetry.Counter // store_cache_misses_total
	coalesced     *telemetry.Counter // store_cache_coalesced_total
	invalidations *telemetry.Counter // store_cache_invalidations_total
}

var zeroMetrics cacheMetrics

func (c *Cache) met() *cacheMetrics {
	if m := c.metrics.Load(); m != nil {
		return m
	}
	return &zeroMetrics
}

// Instrument registers the cache counters in reg: hits, misses, coalesced
// waits and invalidations.
func (c *Cache) Instrument(reg *telemetry.Registry) {
	c.metrics.Store(&cacheMetrics{
		hits:          reg.Counter("store_cache_hits_total"),
		misses:        reg.Counter("store_cache_misses_total"),
		coalesced:     reg.Counter("store_cache_coalesced_total"),
		invalidations: reg.Counter("store_cache_invalidations_total"),
	})
}
