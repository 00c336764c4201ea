// Package store is an embedded XML document store: the reproduction's
// substitute for the Oracle/MySQL databases the paper's prototype used to
// hold disclosure policies, credentials and ontologies (§6.2–6.3).
//
// The paper's StartNegotiation operation "opens the connection with [the]
// Oracle database containing the disclosure policies and credentials of
// the invoker"; PolicyExchange "checks if the database contains disclosure
// policies protecting the credentials requested"; and policy conditions
// are "XPath queries" over stored XML. Here:
//
//   - documents are stored and read by (kind, key), and listed by kind;
//     partydb keeps a party's credentials, policies and ontology under
//     their own kinds. A record is the document's bytes as they were
//     put: PutXML checks that they parse, in one pass that builds no
//     tree, and readers decode the bytes themselves. The XPath
//     conditions run in xtnl, over the credential documents those
//     bytes decode to;
//   - a store built with Open persists through one engine, a segmented
//     write-ahead log (backend_fswal.go) driven by the group-commit
//     committer (commit.go): a log of CRC-checked frames plus checkpoint
//     snapshots. Concurrent writers share one fsync per commit batch, the
//     log rotates into sealed segments at a size threshold (segment.go),
//     and Compact is an online checkpoint that snapshots the live records
//     and deletes only sealed segments (snapshot.go). Recovery = newest
//     valid snapshot + replay of later segments, with a torn tail
//     (partial last write after a crash) detected, truncated and never
//     costing an acknowledged write. The engine routes its mutation
//     surface through internal/faultinject's FS hook layer so a
//     crash-point torture harness can kill it at every file operation
//     and verify those guarantees. A store built with New keeps its
//     records in memory only.
package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"trustvo/internal/faultinject"
	"trustvo/internal/xmldom"
)

// Record is one stored document: an immutable value of three strings.
// The store keeps no parsed tree.
type Record struct {
	Kind string
	Key  string
	// XML is the serialized document as it was put.
	XML string
}

// check reads the record's document through one xmldom.Reader pass,
// building no tree: it fails exactly where a parse would.
func (r *Record) check() error {
	if err := xmldom.NewReader(r.XML).Close(); err != nil {
		return fmt.Errorf("store: record %s/%s: %w", r.Kind, r.Key, err)
	}
	return nil
}

// view returns the caller-facing copy of a stored record. The read path
// hands out copies instead of the stored record, so a caller that
// assigns to a returned record's fields cannot change what the store,
// its snapshots and its other readers see (store/aliasing_test.go).
func (r *Record) view() *Record {
	return &Record{Kind: r.Kind, Key: r.Key, XML: r.XML}
}

// Durability selects when a logged write is fsynced.
type Durability int

const (
	// DurabilityOS leaves flushing to the OS write-back cache: fastest,
	// and a crash can lose the write-back window (Open's default).
	DurabilityOS Durability = iota
	// DurabilityGroup fsyncs once per commit batch: every acknowledged
	// write is on stable storage, and N concurrent writers share one
	// flush (OpenDurable's default). A lone writer gets a batch of one.
	DurabilityGroup
)

// Options tunes a WAL-backed store opened with OpenWithOptions.
type Options struct {
	// Durability is the fsync policy (default DurabilityOS).
	Durability Durability
	// SegmentSize is the rotation threshold for log segments
	// (default 4 MiB).
	SegmentSize int64
	// FS is the filesystem hook layer; nil means the real filesystem.
	// Torture tests inject a faultinject.CrashFS here.
	FS faultinject.FS
	// OnCommit, when set, observes every committed mutation batch in log
	// order, after the batch is durably written (per the durability
	// policy) and applied to the in-memory view, but before the writers
	// are acknowledged. A non-nil return is handed to every writer in
	// the batch — their Put/Delete returns the error — WITHOUT poisoning
	// the log: the local write stands, but the caller must not treat it
	// as acknowledged. This is the synchronous-replication gate of
	// internal/cluster ("acked implies replicated"); replay during Open
	// does not invoke it.
	OnCommit func(entries []Entry) error
}

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.FS == nil {
		o.FS = faultinject.OSFS{}
	}
	return o
}

// Store is the document store. All methods are safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	byKey  map[string]*Record            // composite kind\x00key -> record
	byKind map[string]map[string]*Record // kind -> key -> record

	// kindGens counts committed mutations per kind (guarded by mu), so a
	// caller caching a view derived from some kinds can revalidate without
	// being thrashed by writes to unrelated kinds. See KindGeneration.
	kindGens map[string]uint64

	// path is the WAL base path ("" for stores built with New).
	path string
	opts Options

	// wal is the persistence engine; nil marks a pure in-memory store
	// built with New/NewWithOptions, which has no committer.
	wal *fswalBackend

	// Committer plumbing (see commit.go). commitCh is nil once closed;
	// closeMu serializes submission against Close. poison and closeErr
	// are owned by the committer goroutine after Open.
	commitCh chan commitReq
	closeMu  sync.RWMutex
	commitWG sync.WaitGroup
	poison   error
	closeErr error

	// ckptMu serializes checkpoints (Compact) and fences Destroy against
	// an in-flight snapshot write.
	ckptMu sync.Mutex

	// observers are non-gating commit listeners (see Observe); obsMu
	// guards registration.
	obsMu     sync.RWMutex
	observers []func(entries []Entry)

	// replayedFrames is how many snapshot records plus WAL frames Open
	// replayed, credited to the replay counter when instrumented.
	replayedFrames int
	metrics        atomic.Pointer[storeMetrics]
}

// KindGeneration returns the sum of the per-kind mutation counters for
// kinds. It changes on every successful Put or Delete touching one of
// those kinds and is stable across writes to every other kind — the
// revalidation token for caches scoped to a subset of the store (a
// resume-ticket write must not thrash a memoized party built from
// credentials, policies and ontologies). Replay during Open does not
// bump it: generation 0 plus N replayed frames is still one consistent
// snapshot.
func (s *Store) KindGeneration(kinds ...string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sum uint64
	for _, k := range kinds {
		sum += s.kindGens[k]
	}
	return sum
}

// Observe registers a commit listener: fn receives every committed
// mutation batch in log order, after the batch is durable (per the
// policy) and applied to the in-memory view. Unlike Options.OnCommit it
// cannot withhold acknowledgement — it is the invalidation feed for
// read-through caches, and it fires for every write path including
// cluster replication applies (which go through Put/Delete). fn runs on
// the committer goroutine outside the store locks and must not block;
// replay during Open is not observed. Listeners cannot be removed.
func (s *Store) Observe(fn func(entries []Entry)) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	s.observers = append(s.observers, fn)
}

// notifyObservers fans a committed batch out to every listener.
func (s *Store) notifyObservers(entries []Entry) {
	s.obsMu.RLock() //lint:allow nakedlock snapshot only; listeners run unlocked below
	obs := s.observers
	s.obsMu.RUnlock()
	for _, fn := range obs {
		fn(entries)
	}
}

// ErrNotFound is returned by Get and Delete for missing records.
var ErrNotFound = errors.New("store: record not found")

// New creates an in-memory store with no durability.
func New() *Store {
	return &Store{
		byKey:    make(map[string]*Record),
		byKind:   make(map[string]map[string]*Record),
		kindGens: make(map[string]uint64),
	}
}

// NewWithOptions creates an in-memory store honouring the subset of
// Options that applies without a WAL (currently OnCommit). Cluster
// tests replicate from memory-backed leaders through this.
func NewWithOptions(opts Options) *Store {
	s := New()
	s.opts = opts
	return s
}

// Open creates (or reopens) a WAL-backed store at path. Existing state is
// recovered (snapshot, then segment replay); a torn final frame is
// truncated away. Writes are logged but fsync is left to the OS.
func Open(path string) (*Store, error) {
	return OpenWithOptions(path, Options{})
}

// OpenDurable is Open with synchronous durability: every Put/Delete is on
// stable storage before it returns. Concurrent writers share one fsync
// per commit batch (group commit), so this no longer costs one flush per
// write as it did in v1.
func OpenDurable(path string) (*Store, error) {
	return OpenWithOptions(path, Options{Durability: DurabilityGroup})
}

// OpenWithOptions opens a WAL-backed store with explicit tuning: recover
// the log's persisted state into the in-memory view, then start the
// group-commit committer.
func OpenWithOptions(path string, opts Options) (*Store, error) {
	s := New()
	s.path = path
	s.opts = opts.withDefaults()
	wal := &fswalBackend{path: path, opts: s.opts, met: s.met}
	if err := wal.Recover(s.applyReplay); err != nil {
		return nil, err
	}
	s.wal = wal
	// Room for a few batches to queue behind the one being flushed, so
	// writers rarely block on the send itself.
	s.commitCh = make(chan commitReq, 4*maxBatch)
	s.commitWG.Add(1)
	go s.committer(s.commitCh)
	return s, nil
}

// applyReplay applies recovered entries to the in-memory maps.
func (s *Store) applyReplay(entries []Entry, source string) error {
	for _, e := range entries {
		switch e.Op {
		case OpPut:
			rec := &Record{Kind: e.Kind, Key: e.Key, XML: e.Doc}
			if err := rec.check(); err != nil {
				// Documents were validated before being logged; a parse
				// failure here means on-disk corruption that crc32 did
				// not catch. Surface it, naming the record.
				return fmt.Errorf("store: replay from %s: %w", source, err)
			}
			s.applyRecord(rec)
		case OpDelete:
			s.applyDelete(e.Kind, e.Key)
		}
		s.replayedFrames++
	}
	return nil
}

// Close stops the committer (draining queued writes), seals the log and
// releases its handles. The in-memory view stays readable but further
// writes fail with ErrWALClosed. Concurrent and repeated Closes are safe:
// every call waits until the committer has fully shut down, so when any
// Close returns, no goroutine is still writing to the log — the fence
// Destroy relies on. (Previously a second Close returned immediately
// while the first was still draining, and a Destroy sequenced after it
// could unlink segments the committer was mid-write on.)
func (s *Store) Close() error {
	s.closeMu.Lock() //lint:allow nakedlock must release before commitWG.Wait, or the committer deadlocks
	ch := s.commitCh
	s.commitCh = nil
	s.closeMu.Unlock()
	if ch != nil {
		close(ch)
	}
	// Always wait, even when another Close already took the channel: the
	// WaitGroup is a no-op for in-memory stores and otherwise blocks until
	// the committer has sealed the log.
	s.commitWG.Wait()
	return s.closeErr
}

func composite(kind, key string) string { return kind + "\x00" + key }

// Put stores a document tree as PutXML stores its serialized form.
func (s *Store) Put(kind, key string, doc *xmldom.Node) error {
	return s.PutXML(kind, key, doc.XML())
}

// PutXML validates, stores and (when WAL-backed) durably logs a
// serialized document. The document is checked in one xmldom.Reader
// pass, as replay checks it, and stored as given.
func (s *Store) PutXML(kind, key, xml string) error {
	if kind == "" || key == "" {
		return errors.New("store: kind and key required")
	}
	if strings.ContainsRune(kind, 0) || strings.ContainsRune(key, 0) {
		return errors.New("store: kind and key must not contain NUL")
	}
	rec := &Record{Kind: kind, Key: key, XML: xml}
	if err := rec.check(); err != nil {
		return err
	}
	if s.wal == nil {
		s.mu.Lock() //lint:allow nakedlock commitHook below must run outside the lock (it may do I/O)
		s.applyRecord(rec)
		s.kindGens[kind]++
		s.met().records.Set(int64(len(s.byKey)))
		s.mu.Unlock()
		return s.commitHook([]Entry{{Op: OpPut, Kind: kind, Key: key, Doc: xml}})
	}
	res := s.submit(commitReq{
		kind:  ckPut,
		entry: Entry{Op: OpPut, Kind: kind, Key: key, Doc: xml},
		rec:   rec,
		done:  make(chan commitResult, 1),
	})
	return res.err
}

// applyRecord inserts into the in-memory maps. Caller holds s.mu (write).
func (s *Store) applyRecord(rec *Record) {
	s.byKey[composite(rec.Kind, rec.Key)] = rec
	km := s.byKind[rec.Kind]
	if km == nil {
		km = make(map[string]*Record)
		s.byKind[rec.Kind] = km
	}
	km[rec.Key] = rec
}

// Get returns the record stored under (kind, key). The result is the
// caller's copy (see view).
func (s *Store) Get(kind, key string) (*Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.byKey[composite(kind, key)]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, kind, key)
	}
	return rec.view(), nil
}

// Delete removes a record, durably logging the removal when WAL-backed.
func (s *Store) Delete(kind, key string) error {
	if s.wal == nil {
		s.mu.Lock() //lint:allow nakedlock commitHook below must run outside the lock (it may do I/O)
		if _, ok := s.byKey[composite(kind, key)]; !ok {
			s.mu.Unlock()
			return fmt.Errorf("%w: %s/%s", ErrNotFound, kind, key)
		}
		s.applyDelete(kind, key)
		s.kindGens[kind]++
		s.met().records.Set(int64(len(s.byKey)))
		s.mu.Unlock()
		return s.commitHook([]Entry{{Op: OpDelete, Kind: kind, Key: key}})
	}
	res := s.submit(commitReq{
		kind:  ckDelete,
		entry: Entry{Op: OpDelete, Kind: kind, Key: key},
		done:  make(chan commitResult, 1),
	})
	return res.err
}

func (s *Store) applyDelete(kind, key string) {
	delete(s.byKey, composite(kind, key))
	delete(s.byKind[kind], key)
}

// List returns the records of a kind, sorted by key. The results are the
// caller's copies (see Get).
func (s *Store) List(kind string) []*Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	km := s.byKind[kind]
	out := make([]*Record, 0, len(km))
	for _, r := range km {
		out = append(out, r.view())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Count returns the number of records of a kind.
func (s *Store) Count(kind string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byKind[kind])
}

// Compact is the online checkpoint: a Rotate barrier through the
// committer captures the live record set and the first segment it does
// not cover, then the snapshot is written and the segments it supersedes
// deleted — all while concurrent Puts keep committing into the
// post-rotation log. No-op for in-memory stores built with New.
func (s *Store) Compact() error {
	if s.wal == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	res := s.submit(commitReq{kind: ckRotate, done: make(chan commitResult, 1)})
	if res.err != nil {
		return res.err
	}
	if err := s.wal.Snapshot(res.coverSeq, res.entries); err != nil {
		return err
	}
	s.met().compactions.Inc()
	return nil
}

// Path returns the WAL base path ("" for in-memory stores).
func (s *Store) Path() string { return s.path }

// Sync forces everything logged so far to stable storage.
func (s *Store) Sync() error {
	if s.wal == nil {
		return nil
	}
	res := s.submit(commitReq{kind: ckSync, done: make(chan commitResult, 1)})
	return res.err
}

// Destroy closes the store and removes every file it owns. For tests.
// Close waits for the committer to shut down and ckptMu fences an
// in-flight Compact, so nothing is still writing to the files Destroy
// unlinks — the other half of the Destroy/Close race fix.
func (s *Store) Destroy() error {
	if err := s.Close(); err != nil {
		return err
	}
	if s.wal == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.wal.Destroy()
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
