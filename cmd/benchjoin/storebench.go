package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"trustvo/internal/store"
	"trustvo/internal/store/cacher"
	"trustvo/internal/telemetry"
	"trustvo/internal/xmldom"
)

// Durable-write store mode (-store): EXT-12's group-commit write run and
// EXT-14's read-cache A/B. The write run drives a concurrent put
// workload against a fresh crash-safe store under DurabilityGroup (a nil
// Put is on stable storage) and records throughput, per-put latency
// percentiles and the fsync accounting that shows how many puts share
// each flush.

// storeBenchReport is the -store JSON schema (BENCH_store.json).
type storeBenchReport struct {
	Schema  string         `json:"schema"`
	Writers int            `json:"writers"`
	Puts    int            `json:"puts"`
	Group   storeModeStats `json:"group_commit"`
	// Cache is the read A/B (EXT-14): the hot party-record read
	// workload, cache off vs on.
	Cache cacheBenchReport `json:"cache"`
}

// cacheBenchReport describes the read-through cache A/B.
type cacheBenchReport struct {
	Readers int            `json:"readers"`
	Reads   int            `json:"reads_per_side"`
	TTLMS   float64        `json:"ttl_ms"`
	Off     cacheSideStats `json:"cache_off"`
	On      cacheSideStats `json:"cache_on"`
	// Speedup is on reads/sec over off reads/sec.
	Speedup float64 `json:"speedup"`
}

// cacheSideStats is one half of a cache A/B.
type cacheSideStats struct {
	ElapsedMS    float64   `json:"elapsed_ms"`
	ReadsPerSec  float64   `json:"reads_per_sec"`
	ReadLatencyM latencyMS `json:"read_latency_ms"`
	// Cache counters (zero with the cache off). MissesPerTTLWindow is the
	// acceptance criterion: with singleflight coalescing, the hot record
	// costs at most ~1 store fetch per TTL window however many readers
	// hammer it, so this stays ≈1. CoalescedGEMisses records that the
	// coalesced-wait counter is at least the miss counter (each refetch
	// had other readers piled on it).
	Hits               uint64  `json:"hits"`
	Misses             uint64  `json:"misses"`
	Coalesced          uint64  `json:"coalesced"`
	MissesPerTTLWindow float64 `json:"misses_per_ttl_window"`
	CoalescedGEMisses  bool    `json:"coalesced_ge_misses"`
}

// storeModeStats is the write run's result.
type storeModeStats struct {
	ElapsedMS    float64   `json:"elapsed_ms"`
	PutsPerSec   float64   `json:"puts_per_sec"`
	PutLatencyMS latencyMS `json:"put_latency_ms"`
	// Fsyncs is store_fsync_total for the run; MeanBatch is committed
	// puts per fsync (store_wal_appends_total / store_fsync_total), the
	// realized group-commit coalescing factor.
	Fsyncs    int64   `json:"fsyncs"`
	MeanBatch float64 `json:"mean_batch"`
	Rotations int64   `json:"segment_rotations"`
}

// runStoreBench runs the write run and the cache A/B and writes the
// report to outPath.
func runStoreBench(w *os.File, writers, puts int, outPath string) error {
	if writers < 1 {
		writers = 1
	}
	if puts < writers {
		puts = writers
	}
	dir, err := os.MkdirTemp("", "storebench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	group, err := storeBenchRun(filepath.Join(dir, "group.wal"), writers, puts)
	if err != nil {
		return fmt.Errorf("group-commit pass: %w", err)
	}
	rep := storeBenchReport{
		Schema:  "trustvo.benchjoin.store/v3",
		Writers: writers,
		Puts:    puts,
		Group:   group,
	}
	fmt.Fprintf(w, "EXT-12 — durable puts under group commit, %d writers, %d puts\n", writers, puts)
	fmt.Fprintf(w, "  %10s %12s %10s %12s\n", "puts/sec", "p50 / p99", "fsyncs", "puts/fsync")
	fmt.Fprintf(w, "  %10.0f %5.2f/%5.2fms %10d %12.1f\n",
		group.PutsPerSec, group.PutLatencyMS.P50, group.PutLatencyMS.P99, group.Fsyncs, group.MeanBatch)

	// Read A/B (EXT-14): the hot party-record workload, cache off/on.
	cache, err := runCacheBench(w, filepath.Join(dir, "cache.wal"))
	if err != nil {
		return fmt.Errorf("cache pass: %w", err)
	}
	rep.Cache = cache

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "  report written to %s\n", outPath)
	}
	return nil
}

// storeBenchRun drives the concurrent put workload against a fresh
// store opened with DurabilityGroup and collects the run's stats.
func storeBenchRun(path string, writers, puts int) (storeModeStats, error) {
	reg := telemetry.NewRegistry()
	s, err := store.OpenDurable(path)
	if err != nil {
		return storeModeStats{}, err
	}
	s.Instrument(reg)

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []time.Duration
		firstMu sync.Mutex
		campErr error
	)
	recordErr := func(err error) {
		firstMu.Lock()
		defer firstMu.Unlock()
		if campErr == nil {
			campErr = err
		}
	}
	perWorker := puts / writers
	extra := puts % writers
	t0 := time.Now()
	for i := 0; i < writers; i++ {
		n := perWorker
		if i < extra {
			n++
		}
		wg.Add(1)
		go func(worker, n int) {
			defer wg.Done()
			local := make([]time.Duration, 0, n)
			for j := 0; j < n; j++ {
				doc := fmt.Sprintf(`<doc seq="%d" worker="%d"/>`, j, worker)
				key := fmt.Sprintf("w%02d-%06d", worker, j)
				js := time.Now()
				if err := s.PutXML("bench", key, doc); err != nil {
					recordErr(fmt.Errorf("worker %d put %d: %w", worker, j, err))
					return
				}
				local = append(local, time.Since(js))
			}
			mu.Lock()
			defer mu.Unlock()
			samples = append(samples, local...)
		}(i, n)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if campErr != nil {
		s.Destroy()
		return storeModeStats{}, campErr
	}
	if err := s.Destroy(); err != nil {
		return storeModeStats{}, err
	}

	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	fsyncs := reg.Counter("store_fsync_total").Value()
	appends := reg.Counter("store_wal_appends_total").Value()
	stats := storeModeStats{
		ElapsedMS:  durMS(elapsed),
		PutsPerSec: float64(len(samples)) / elapsed.Seconds(),
		PutLatencyMS: latencyMS{
			P50: durMS(percentile(samples, 0.50)),
			P95: durMS(percentile(samples, 0.95)),
			P99: durMS(percentile(samples, 0.99)),
		},
		Fsyncs:    fsyncs,
		Rotations: reg.Counter("store_segment_rotations_total").Value(),
	}
	if fsyncs > 0 {
		stats.MeanBatch = float64(appends) / float64(fsyncs)
	}
	return stats, nil
}

// Cache A/B (EXT-14): 32 readers repeat the hot party reload — list the
// credential kind and parse every record, the read pattern of N
// concurrent StartNegotiation calls rebuilding the same controller
// profile — once reading the store directly and once through the
// coalescing read-through cache. Both sides parse every record they
// read, so what the cache saves is the store fetch it shares. The claim
// under test: with singleflight + TTL, the hot record set costs at most
// ~one store fetch per TTL window regardless of reader count, and every
// refetch has other readers coalesced onto it (coalesced >= misses).
const (
	cacheReaders  = 32
	cacheReads    = 32_000 // total reads per half
	cacheTTL      = 5 * time.Millisecond
	cacheColdKeys = 64 // cold records seeded alongside the hot one
)

func runCacheBench(w *os.File, path string) (cacheBenchReport, error) {
	rep := cacheBenchReport{Readers: cacheReaders, Reads: cacheReads, TTLMS: durMS(cacheTTL)}
	s, err := store.OpenDurable(path)
	if err != nil {
		return rep, err
	}
	defer s.Destroy()
	// One hot party record plus a cold tail, as a real party DB holds.
	if err := s.PutXML("credential", "hot/party", `<credential type="ISOCert"><issuer>CA</issuer></credential>`); err != nil {
		return rep, err
	}
	for i := 0; i < cacheColdKeys; i++ {
		if err := s.PutXML("credential", fmt.Sprintf("cold/%d", i), fmt.Sprintf(`<credential type="t%d"/>`, i%7)); err != nil {
			return rep, err
		}
	}

	// The reload shape: every credential of the kind, parsed. Reading the
	// store directly takes a fresh list of copies per reader; the cached
	// reload shares one list per TTL window. A record parses on every Doc
	// call on both sides.
	if rep.Off, err = cacheBenchSide(func() error { return parseAll(s.List("credential")) }, nil); err != nil {
		return rep, err
	}
	c := cacher.New(s, cacheTTL)
	if rep.On, err = cacheBenchSide(func() error { return parseAll(c.List("credential")) }, c); err != nil {
		return rep, err
	}
	rep.Speedup = rep.On.ReadsPerSec / rep.Off.ReadsPerSec
	fmt.Fprintf(w, "\n  read cache A/B (EXT-14): %d readers, %d reads, hot key, ttl %s\n",
		cacheReaders, cacheReads, cacheTTL)
	fmt.Fprintf(w, "  %14s %14s %8s %26s\n", "off reads/s", "on reads/s", "speedup", "misses/window  coal>=miss")
	fmt.Fprintf(w, "  %14.0f %14.0f %7.2fx %15.2f  %10v\n",
		rep.Off.ReadsPerSec, rep.On.ReadsPerSec, rep.Speedup, rep.On.MissesPerTTLWindow, rep.On.CoalescedGEMisses)
	return rep, nil
}

// parseAll parses every record into a tree. LoadProfile decodes each
// record's XML without a tree; a parse stands in for that decode here,
// at the same cost on both sides of the A/B.
func parseAll(recs []*store.Record) error {
	for _, r := range recs {
		if _, err := xmldom.ParseString(r.XML); err != nil {
			return err
		}
	}
	return nil
}

// cacheBenchSide runs one half of the A/B: cacheReaders goroutines share
// cacheReads calls to read.
func cacheBenchSide(read func() error, c *cacher.Cache) (cacheSideStats, error) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []time.Duration
		firstMu sync.Mutex
		runErr  error
	)
	perReader := cacheReads / cacheReaders
	// All readers fire together: the opening burst is the dogpile the
	// cache exists to absorb, so it must be part of the measurement.
	start := make(chan struct{})
	for r := 0; r < cacheReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			local := make([]time.Duration, 0, perReader)
			for i := 0; i < perReader; i++ {
				js := time.Now()
				if err := read(); err != nil {
					firstMu.Lock() //lint:allow nakedlock three-line first-error record, no early return
					if runErr == nil {
						runErr = err
					}
					firstMu.Unlock()
					return
				}
				local = append(local, time.Since(js))
			}
			mu.Lock()
			defer mu.Unlock()
			samples = append(samples, local...)
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	if runErr != nil {
		return cacheSideStats{}, runErr
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	stats := cacheSideStats{
		ElapsedMS:   durMS(elapsed),
		ReadsPerSec: float64(len(samples)) / elapsed.Seconds(),
		ReadLatencyM: latencyMS{
			P50: durMS(percentile(samples, 0.50)),
			P95: durMS(percentile(samples, 0.95)),
			P99: durMS(percentile(samples, 0.99)),
		},
	}
	if c != nil {
		st := c.Stats()
		stats.Hits, stats.Misses, stats.Coalesced = st.Hits, st.Misses, st.Coalesced
		windows := float64(elapsed) / float64(cacheTTL)
		if windows > 0 {
			stats.MissesPerTTLWindow = float64(st.Misses) / windows
		}
		stats.CoalescedGEMisses = st.Coalesced >= st.Misses
	}
	return stats, nil
}
