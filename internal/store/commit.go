package store

import "fmt"

// Group commit. All durable mutations funnel through one committer
// goroutine: writers submit their entry and block; the committer
// coalesces everything queued into a batch, hands the batch to the WAL
// as ONE Append (which pays one write and — under DurabilityGroup — one
// fsync for the whole batch), and only then applies the batch to the
// in-memory maps and releases the writers. N concurrent writers
// therefore share one disk flush instead of paying one each, while
// keeping the contract that a nil return from Put/Delete means "on
// stable storage" (under DurabilityGroup).
//
// The committer is also the only goroutine that calls into the WAL's
// append path (Append/Sync/Rotate/Close) or touches the poison state,
// which removes a whole class of lost-handle bugs: any append-path
// failure poisons the log with a sticky error — later writes fail loudly
// instead of landing on a dead file.

// maxBatch caps how many requests one commit batch may carry.
const maxBatch = 128

type commitKind int

const (
	ckPut commitKind = iota
	ckDelete
	ckSync
	ckRotate
)

type commitReq struct {
	kind  commitKind
	entry Entry
	rec   *Record // pre-validated record for ckPut
	done  chan commitResult
}

type commitResult struct {
	err error
	// coverSeq and entries answer a ckRotate: the first segment NOT
	// summarized by a snapshot taken now, and the consistent record set
	// as of the rotation point.
	coverSeq uint64
	entries  []Entry
}

// submit hands a request to the committer and waits for its result.
func (s *Store) submit(req commitReq) commitResult {
	s.closeMu.RLock() //lint:allow nakedlock must release before blocking on done, or Close deadlocks
	ch := s.commitCh
	if ch == nil {
		s.closeMu.RUnlock()
		return commitResult{err: ErrWALClosed}
	}
	ch <- req
	s.closeMu.RUnlock()
	return <-req.done
}

// committer is the group-commit loop. Batching is natural: whatever
// queued while the previous batch was flushing is taken without waiting,
// up to maxBatch requests. The loop exits when the request channel is
// closed (Store.Close), after draining every queued request. The channel
// is passed in rather than read from the struct because Close nils the
// field before closing the channel.
func (s *Store) committer(ch chan commitReq) {
	defer s.commitWG.Done()
	for first := range ch {
		batch := append(make([]commitReq, 0, maxBatch), first)
	collect:
		for len(batch) < maxBatch {
			select {
			case r, ok := <-ch:
				if !ok {
					break collect
				}
				batch = append(batch, r)
			default:
				break collect
			}
		}
		s.processBatch(batch)
	}
	s.sealLog()
}

// processBatch walks the batch in order. Runs of puts and deletes flush
// together; sync and rotate requests act as barriers (everything before
// them commits first).
func (s *Store) processBatch(batch []commitReq) {
	start := 0
	for i, r := range batch {
		switch r.kind {
		case ckSync:
			s.flushGroup(batch[start:i])
			start = i + 1
			r.done <- commitResult{err: s.syncActive()}
		case ckRotate:
			s.flushGroup(batch[start:i])
			start = i + 1
			r.done <- s.rotateForCheckpoint()
		}
	}
	s.flushGroup(batch[start:])
}

// poisonErr wraps the sticky failure for reporting.
func (s *Store) poisonErr() error {
	return fmt.Errorf("store: WAL poisoned by earlier write failure: %w", s.poison)
}

// syncActive forces the WAL to stable storage on demand (Store.Sync).
func (s *Store) syncActive() error {
	if s.poison != nil {
		return s.poisonErr()
	}
	if err := s.wal.Sync(); err != nil {
		s.poison = err
		return s.poisonErr()
	}
	return nil
}

// flushGroup hands the group's entries to the WAL as one Append (which
// writes and fsyncs per the durability policy), applies the group to the
// in-memory maps in log order, and acknowledges each writer. On an
// append failure the log is poisoned and every unacknowledged writer in
// the group gets the error — no write is ever silently dropped.
func (s *Store) flushGroup(group []commitReq) {
	if len(group) == 0 {
		return
	}
	if s.poison != nil {
		err := s.poisonErr()
		for _, r := range group {
			r.done <- commitResult{err: err}
		}
		return
	}
	// Resolve deletes against the committed state plus this group's own
	// earlier entries, so a delete of a missing key is rejected without
	// logging a frame (replay stays an exact record of applied changes).
	accepted := group[:0:len(group)]
	batch := make([]Entry, 0, len(group))
	for _, r := range group {
		if r.kind == ckDelete && !s.liveAfter(batch, r.entry.Kind, r.entry.Key) {
			r.done <- commitResult{err: fmt.Errorf("%w: %s/%s", ErrNotFound, r.entry.Kind, r.entry.Key)}
			continue
		}
		// Reject what no frame can carry here, per writer, so Append
		// never fails on one entry and poisons the whole batch.
		if err := validateEntry(r.entry); err != nil {
			r.done <- commitResult{err: err}
			continue
		}
		batch = append(batch, r.entry)
		accepted = append(accepted, r)
	}
	if len(accepted) == 0 {
		return
	}
	if err := s.wal.Append(batch); err != nil {
		s.poison = err
		perr := s.poisonErr()
		for _, r := range accepted {
			r.done <- commitResult{err: perr}
		}
		return
	}
	m := s.met()
	m.appends.Add(int64(len(accepted)))
	m.batchSize.Observe(float64(len(accepted)))
	s.mu.Lock() //lint:allow nakedlock apply loop then ack outside the lock; no early return
	for _, r := range accepted {
		if r.kind == ckPut {
			s.applyRecord(r.rec)
		} else {
			s.applyDelete(r.entry.Kind, r.entry.Key)
		}
		s.kindGens[r.entry.Kind]++
	}
	m.records.Set(int64(len(s.byKey)))
	s.mu.Unlock()
	// The replication gate: the batch is durable and applied locally;
	// OnCommit decides whether the writers may treat it as acknowledged.
	// A hook failure is NOT poison — the local log is intact — but every
	// writer in the batch sees the error instead of a nil ack. Observers
	// (cache invalidation) fire regardless: the local view did change.
	hookErr := s.commitHook(batch)
	for _, r := range accepted {
		r.done <- commitResult{err: hookErr}
	}
}

// liveAfter reports whether (kind, key) is live once the entries of
// batch are applied: the last of them on that key decides, and the
// committed maps answer when none touches it.
func (s *Store) liveAfter(batch []Entry, kind, key string) bool {
	for i := len(batch) - 1; i >= 0; i-- {
		if e := batch[i]; e.Kind == kind && e.Key == key {
			return e.Op == OpPut
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.byKey[composite(kind, key)]
	return ok
}

// commitHook invokes the OnCommit gate and then the non-gating observers
// for one committed batch (both write paths end here).
func (s *Store) commitHook(entries []Entry) error {
	var err error
	if hook := s.opts.OnCommit; hook != nil {
		err = hook(entries)
	}
	s.notifyObservers(entries)
	return err
}

// rotateForCheckpoint seals the active segment and captures the
// consistent record set at that boundary: the segments below the
// returned cover sequence hold exactly the returned entries, which is
// what makes snapshot + later-log replay recovery exact.
func (s *Store) rotateForCheckpoint() commitResult {
	if s.poison != nil {
		return commitResult{err: s.poisonErr()}
	}
	coverSeq, err := s.wal.Rotate()
	if err != nil {
		s.poison = err
		return commitResult{err: s.poisonErr()}
	}
	return commitResult{coverSeq: coverSeq, entries: s.SnapshotEntries()}
}

// sealLog runs at shutdown, after the request channel has drained: flush
// the WAL per policy and release its handles. Errors are reported
// through Store.Close.
func (s *Store) sealLog() {
	if s.poison == nil && s.opts.Durability == DurabilityGroup {
		if err := s.wal.Sync(); err != nil {
			s.closeErr = fmt.Errorf("store: final WAL fsync: %w", err)
		}
	}
	if err := s.wal.Close(); err != nil && s.closeErr == nil {
		s.closeErr = fmt.Errorf("store: close WAL: %w", err)
	}
}
