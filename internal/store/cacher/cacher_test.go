package cacher

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trustvo/internal/store"
	"trustvo/internal/telemetry"
	"trustvo/internal/xmldom"
)

func doc(i int) string {
	return fmt.Sprintf(`<credential type="t%d"><field name="v">%d</field></credential>`, i%3, i)
}

func newCachedStore(t *testing.T, ttl time.Duration) (*store.Store, *Cache) {
	t.Helper()
	db := store.New()
	return db, New(db, ttl)
}

func TestGetReadThrough(t *testing.T) {
	db, c := newCachedStore(t, time.Minute)
	if err := db.PutXML("credential", "a", doc(1)); err != nil {
		t.Fatal(err)
	}
	r1, err := c.Get("credential", "a")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Get("credential", "a")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("second Get did not serve the cached record")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", st)
	}
	if _, err := c.Get("credential", "missing"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("missing key error = %v, want ErrNotFound", err)
	}
}

func TestInvalidationOnWrite(t *testing.T) {
	db, c := newCachedStore(t, time.Minute)
	if err := db.PutXML("credential", "a", doc(1)); err != nil {
		t.Fatal(err)
	}
	before, err := c.Get("credential", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutXML("credential", "a", doc(2)); err != nil {
		t.Fatal(err)
	}
	after, err := c.Get("credential", "a")
	if err != nil {
		t.Fatal(err)
	}
	if after == before || after.XML == before.XML {
		t.Error("Get after a write served the pre-write record")
	}
	if st := c.Stats(); st.Invalidations == 0 {
		t.Error("commit did not invalidate")
	}
}

// TestInvalidationScopedByKind: a write to one kind must not drop cached
// entries of other kinds.
func TestInvalidationScopedByKind(t *testing.T) {
	db, c := newCachedStore(t, time.Minute)
	if err := db.PutXML("credential", "a", doc(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("credential", "a"); err != nil {
		t.Fatal(err)
	}
	if err := db.PutXML("resume", "r1", doc(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("credential", "a"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1 (unrelated-kind write must not invalidate)", st.Hits)
	}
	if st.Invalidations != 0 {
		t.Errorf("invalidations = %d, want 0", st.Invalidations)
	}
}

func TestListReadThroughAndExpiry(t *testing.T) {
	db, c := newCachedStore(t, time.Minute)
	now := time.Now()
	var clock atomic.Int64 // seconds offset
	c.now = func() time.Time { return now.Add(time.Duration(clock.Load()) * time.Second) }
	for i := 0; i < 4; i++ {
		if err := db.PutXML("policy", fmt.Sprintf("p%d", i), doc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.List("policy")); got != 4 {
		t.Fatalf("List = %d records, want 4", got)
	}
	c.List("policy")
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", st)
	}
	clock.Store(int64(2 * time.Minute / time.Second))
	c.List("policy")
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (TTL expiry must refetch)", st.Misses)
	}
}

// TestSingleflightCoalescing: N concurrent readers of one cold key share
// one store fetch.
func TestSingleflightCoalescing(t *testing.T) {
	db, c := newCachedStore(t, time.Minute)
	if err := db.PutXML("credential", "hot", doc(1)); err != nil {
		t.Fatal(err)
	}
	const readers = 32
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
	)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := c.Get("credential", "hot"); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses+st.Coalesced != readers {
		t.Errorf("stats %+v do not account for %d readers", st, readers)
	}
	// Every reader that did not hit an already-filled entry must have
	// either run THE fetch or coalesced onto it: with one key there can
	// be at most one miss.
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 for one cold key", st.Misses)
	}
}

// TestStaleFillLosesToInvalidation pins the ordering contract: a fetch
// that was in flight when a write committed must not be installed, so
// the first read AFTER the write refetches and sees the new value.
func TestStaleFillLosesToInvalidation(t *testing.T) {
	db := store.New()
	c := New(db, time.Minute)
	if err := db.PutXML("credential", "a", doc(1)); err != nil {
		t.Fatal(err)
	}

	// Start a fill and hold it mid-flight: the fetch reads the store,
	// then blocks before installing, while a write commits.
	fetchStarted := make(chan struct{})
	writeDone := make(chan struct{})
	var once sync.Once
	slot := slotKey(opGet, "credential", "a")
	fillResult := make(chan *store.Record, 1)
	go func() {
		recs, err := c.lookup(slot, "credential", func() ([]*store.Record, error) {
			rec, err := db.Get("credential", "a")
			if err != nil {
				return nil, err
			}
			once.Do(func() {
				close(fetchStarted)
				<-writeDone // invalidation lands while this fill is in flight
			})
			return []*store.Record{rec}, nil
		})
		if err != nil {
			t.Error(err)
		}
		fillResult <- recs[0]
	}()
	<-fetchStarted
	if err := db.PutXML("credential", "a", doc(2)); err != nil {
		t.Fatal(err)
	}
	close(writeDone)

	// The in-flight reader gets the value it raced for (the old one).
	got := <-fillResult
	if got.XML != mustXML(t, doc(1)) {
		t.Errorf("in-flight reader saw %q, want the pre-write record", got.XML)
	}
	// A reader arriving after the write must NOT see the stale fill.
	after, err := c.Get("credential", "a")
	if err != nil {
		t.Fatal(err)
	}
	if after.XML != mustXML(t, doc(2)) {
		t.Errorf("post-write Get = %q, want the new record (stale fill must lose)", after.XML)
	}
	st := c.Stats()
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (stale fill must not be cached)", st.Misses)
	}
}

// mustXML returns the bytes the store keeps for a document put as raw.
func mustXML(t *testing.T, raw string) string {
	t.Helper()
	db := store.New()
	if err := db.PutXML("k", "k", raw); err != nil {
		t.Fatal(err)
	}
	rec, err := db.Get("k", "k")
	if err != nil {
		t.Fatal(err)
	}
	return rec.XML
}

// TestConcurrentGetInvalidateExpiry is the race-enabled soak: readers,
// writers (driving invalidations) and an expiring clock all running
// against one hot key plus a rotating cold set. The assertions are the
// cache's safety net: no reader ever errors, and every read returns
// either the current value or one that was current during the read.
func TestConcurrentGetInvalidateExpiry(t *testing.T) {
	db := store.New()
	c := New(db, time.Minute)
	base := time.Now()
	var fakeNow atomic.Int64
	c.now = func() time.Time { return base.Add(time.Duration(fakeNow.Load())) }

	if err := db.PutXML("credential", "hot", doc(0)); err != nil {
		t.Fatal(err)
	}
	var (
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		version atomic.Int64
	)
	// Writer: bumps the hot key (each write invalidates).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			version.Store(int64(i))
			if err := db.PutXML("credential", "hot", doc(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Clock driver: jumps time past the TTL repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fakeNow.Add(int64(2 * time.Minute))
			}
		}
	}()
	// Readers on the hot key: must never error and never read a version
	// older than one that was already committed when the read STARTED.
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := version.Load() // committed before this read started? not necessarily — see below
				rec, err := c.Get("credential", "hot")
				if err != nil {
					t.Errorf("hot Get: %v", err)
					return
				}
				// floor was read before the Get, but the writer may have
				// been mid-Put of floor when we sampled it; floor-1 is
				// the newest version guaranteed committed. Anything older
				// than that is a staleness violation.
				d, err := xmldom.ParseString(rec.XML)
				if err != nil {
					t.Errorf("hot record: %v", err)
					return
				}
				var got int
				if _, err := fmt.Sscanf(d.AttrOr("type", ""), "t%d", &got); err != nil {
					t.Errorf("unparsable record type %q", d.AttrOr("type", ""))
					return
				}
				var v int
				if f := d.Child("field"); f != nil {
					fmt.Sscanf(f.Text(), "%d", &v)
				}
				if int64(v) < floor-1 {
					t.Errorf("read version %d, floor was %d: stale beyond the race window", v, floor)
					return
				}
			}
		}()
	}
	// Cold-set readers keep the map churning alongside the invalidator.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("cold-%d-%d", r, i%5)
				if err := db.PutXML("policy", key, doc(i)); err != nil {
					t.Error(err)
					return
				}
				c.List("policy")
			}
		}(r)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	st := c.Stats()
	if st.Misses == 0 || st.Invalidations == 0 {
		t.Errorf("soak exercised nothing: %+v", st)
	}
	t.Logf("soak stats: %+v", st)
}

func TestInstrument(t *testing.T) {
	db, c := newCachedStore(t, time.Minute)
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	if err := db.PutXML("credential", "a", doc(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("credential", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("credential", "a"); err != nil {
		t.Fatal(err)
	}
	if err := db.PutXML("credential", "a", doc(2)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store_cache_hits_total").Value(); got != 1 {
		t.Errorf("store_cache_hits_total = %d, want 1", got)
	}
	if got := reg.Counter("store_cache_misses_total").Value(); got != 1 {
		t.Errorf("store_cache_misses_total = %d, want 1", got)
	}
	if got := reg.Counter("store_cache_invalidations_total").Value(); got != 1 {
		t.Errorf("store_cache_invalidations_total = %d, want 1", got)
	}
}

// TestDurableStoreInvalidation wires the cache over a WAL-backed store:
// the committer-goroutine write path must feed the same invalidation
// hook as the in-memory path.
func TestDurableStoreInvalidation(t *testing.T) {
	db, err := store.OpenDurable(t.TempDir() + "/db")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Destroy()
	c := New(db, time.Minute)
	if err := db.PutXML("credential", "a", doc(1)); err != nil {
		t.Fatal(err)
	}
	r1, err := c.Get("credential", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutXML("credential", "a", doc(2)); err != nil {
		t.Fatal(err)
	}
	r2, err := c.Get("credential", "a")
	if err != nil {
		t.Fatal(err)
	}
	if r1.XML == r2.XML {
		t.Error("durable-store write did not invalidate the cache")
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestFillParsesNothing: a fill caches the store's records as they are,
// so refilling a list after a write costs what store.List costs plus the
// slot's own bookkeeping, however many records the kind holds.
func TestFillParsesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	db, c := newCachedStore(t, time.Minute)
	for i := 0; i < 32; i++ {
		if err := db.PutXML("policy", fmt.Sprintf("p%02d", i), doc(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Each side overwrites one record, then reads the kind: through the
	// store, or through the cache, whose write invalidated the slot.
	side := func(read func()) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := db.PutXML("policy", "p00", doc(i)); err != nil {
					b.Fatal(err)
				}
				read()
			}
		})
	}
	direct := side(func() { db.List("policy") })
	cached := side(func() { c.List("policy") })
	if st := c.Stats(); st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("the cached side did not refill on every read: %+v", st)
	}
	objs := cached.AllocsPerOp() - direct.AllocsPerOp()
	bytes := cached.AllocedBytesPerOp() - direct.AllocedBytesPerOp()
	t.Logf("a refill allocates %d objects and %d B more than store.List", objs, bytes)
	if objs > 8 || bytes > 1<<10 {
		t.Fatalf("a refill of 32 records allocates %d objects and %d B more than store.List, want at most 8 and 1 KiB", objs, bytes)
	}
}
