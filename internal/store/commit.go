package store

import (
	"fmt"
	"time"
)

// Group commit. All durable mutations funnel through one committer
// goroutine: writers submit their frame and block; the committer
// coalesces everything queued into a batch, hands the batch to the
// Backend as ONE Append (which pays one write and — per policy — one
// fsync for the whole batch), and only then applies the batch to the
// in-memory maps and releases the writers. N concurrent writers
// therefore share one disk flush instead of paying one each, while
// keeping the contract that a nil return from Put/Delete means "on
// stable storage" (under DurabilityGroup and DurabilityEveryOp).
//
// The committer is also the only goroutine that calls into the backend's
// append path (Append/Sync/Rotate/Close) or touches the poison state,
// which removes a whole class of lost-handle bugs: any append-path
// failure poisons the log with a sticky error — later writes fail loudly
// instead of landing on a dead file.

type commitKind int

const (
	ckPut commitKind = iota
	ckDelete
	ckSync
	ckRotate
)

type commitReq struct {
	kind  commitKind
	entry walEntry
	rec   *Record // pre-validated record for ckPut
	done  chan commitResult
}

type commitResult struct {
	err error
	// coverSeq and entries answer a ckRotate: the backend's checkpoint
	// token (for the segmented WAL, the first segment NOT summarized by a
	// snapshot taken now) and the consistent record set as of the
	// rotation point.
	coverSeq uint64
	entries  []walEntry
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

// committer is the group-commit loop. It exits when the request channel
// is closed (Store.Close), after draining every queued request. The
// channel is passed in rather than read from the struct because Close
// nils the field before closing the channel.
func (s *Store) committer(ch chan commitReq) {
	defer s.commitWG.Done()
	for {
		req, ok := <-ch
		if !ok {
			s.sealLog()
			return
		}
		s.processBatch(s.collectBatch(ch, req))
	}
}

// collectBatch gathers queued requests behind first, up to MaxBatch.
// Coalescing is primarily "natural": whatever queued while the previous
// batch was fsyncing is taken without waiting. A positive MaxDelay
// additionally holds the batch open for stragglers, trading put latency
// for fewer fsyncs.
func (s *Store) collectBatch(ch chan commitReq, first commitReq) []commitReq {
	batch := append(make([]commitReq, 0, s.opts.MaxBatch), first)
	for len(batch) < s.opts.MaxBatch {
		select {
		case r, ok := <-ch:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		default:
			if s.opts.MaxDelay <= 0 || s.opts.Durability != DurabilityGroup {
				return batch
			}
			timer := time.NewTimer(s.opts.MaxDelay)
			defer timer.Stop()
			for len(batch) < s.opts.MaxBatch {
				select {
				case r, ok := <-ch:
					if !ok {
						return batch
					}
					batch = append(batch, r)
				case <-timer.C:
					return batch
				}
			}
			return batch
		}
	}
	return batch
}

// processBatch walks the batch in order. Puts and deletes accumulate and
// flush together; sync and rotate requests act as barriers (everything
// before them commits first).
func (s *Store) processBatch(batch []commitReq) {
	var pending []commitReq
	for _, r := range batch {
		switch r.kind {
		case ckPut, ckDelete:
			pending = append(pending, r)
		case ckSync:
			s.flush(pending)
			pending = nil
			r.done <- commitResult{err: s.syncActive()}
		case ckRotate:
			s.flush(pending)
			pending = nil
			r.done <- s.rotateForCheckpoint()
		}
	}
	s.flush(pending)
}

// poisonErr wraps the sticky failure for reporting.
func (s *Store) poisonErr() error {
	return fmt.Errorf("store: WAL poisoned by earlier write failure: %w", s.poison)
}

// syncActive forces the backend to stable storage on demand (Store.Sync).
func (s *Store) syncActive() error {
	if s.poison != nil {
		return s.poisonErr()
	}
	if err := s.backend.Sync(); err != nil {
		s.poison = err
		return s.poisonErr()
	}
	return nil
}

// flush commits pending mutations: under DurabilityEveryOp each op is
// written and fsynced alone (the pre-group-commit baseline, kept for the
// EXT-12 A/B); otherwise the whole group shares one write and one fsync.
func (s *Store) flush(pending []commitReq) {
	if len(pending) == 0 {
		return
	}
	if s.opts.Durability == DurabilityEveryOp {
		for _, r := range pending {
			s.flushGroup([]commitReq{r})
		}
		return
	}
	s.flushGroup(pending)
}

// flushGroup hands the group's entries to the backend as one Append
// (which writes and fsyncs per the durability policy), applies the group
// to the in-memory maps in log order, and acknowledges each writer. On
// an append failure the log is poisoned and every unacknowledged writer
// in the group gets the error — no write is ever silently dropped.
func (s *Store) flushGroup(group []commitReq) {
	if s.poison != nil {
		err := s.poisonErr()
		for _, r := range group {
			r.done <- commitResult{err: err}
		}
		return
	}
	// Resolve deletes against the committed state plus this group's own
	// earlier effects, so a delete of a missing key is rejected without
	// logging a frame (replay stays an exact record of applied changes).
	accepted := group[:0:len(group)]
	overlay := make(map[string]bool, len(group))
	batch := make([]walEntry, 0, len(group))
	for _, r := range group {
		ck := composite(r.entry.kind, r.entry.key)
		if r.kind == ckDelete {
			exists, seen := overlay[ck]
			if !seen {
				s.mu.RLock() //lint:allow nakedlock single map lookup; defer would pin the read lock per group entry
				_, exists = s.byKey[ck]
				s.mu.RUnlock()
			}
			if !exists {
				r.done <- commitResult{err: fmt.Errorf("%w: %s/%s", ErrNotFound, r.entry.kind, r.entry.key)}
				continue
			}
			overlay[ck] = false
		} else {
			overlay[ck] = true
		}
		// Reject what no backend can frame here, per writer, so Append
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
	if err := s.backend.Append(batch); err != nil {
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
			s.applyDelete(r.entry.kind, r.entry.key)
		}
		s.kindGens[r.entry.kind]++
	}
	m.records.Set(int64(len(s.byKey)))
	s.mu.Unlock()
	// The replication gate: the batch is durable and applied locally;
	// OnCommit decides whether the writers may treat it as acknowledged.
	// A hook failure is NOT poison — the local log is intact — but every
	// writer in the batch sees the error instead of a nil ack. Observers
	// (cache invalidation) fire regardless: the local view did change.
	entries := make([]Entry, len(accepted))
	for i, r := range accepted {
		entries[i] = exportEntry(r.entry)
	}
	hookErr := s.commitHook(entries)
	for _, r := range accepted {
		r.done <- commitResult{err: hookErr}
	}
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

// rotateForCheckpoint asks the backend to begin a checkpoint and captures
// the consistent record set at that boundary: everything the checkpoint
// token covers is exactly the returned entries, which is what makes
// snapshot + later-log replay recovery exact.
func (s *Store) rotateForCheckpoint() commitResult {
	if s.poison != nil {
		return commitResult{err: s.poisonErr()}
	}
	coverSeq, err := s.backend.Rotate()
	if err != nil {
		s.poison = err
		return commitResult{err: s.poisonErr()}
	}
	return commitResult{coverSeq: coverSeq, entries: s.liveEntries()}
}

// liveEntries captures every live record as a put frame, in sorted
// (kind, key) order for deterministic snapshots.
func (s *Store) liveEntries() []walEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries := make([]walEntry, 0, len(s.byKey))
	for _, kind := range sortedKeys(s.byKind) {
		km := s.byKind[kind]
		for _, key := range sortedKeys(km) {
			entries = append(entries, walEntry{op: opPut, kind: kind, key: key, doc: km[key].XML})
		}
	}
	return entries
}

// sealLog runs at shutdown, after the request channel has drained: flush
// the backend per policy and release its handles. Errors are reported
// through Store.Close.
func (s *Store) sealLog() {
	if s.backend == nil {
		return
	}
	if s.poison == nil && s.opts.Durability != DurabilityOS {
		if err := s.backend.Sync(); err != nil {
			s.closeErr = fmt.Errorf("store: final WAL fsync: %w", err)
		}
	}
	if err := s.backend.Close(); err != nil && s.closeErr == nil {
		s.closeErr = fmt.Errorf("store: close WAL: %w", err)
	}
}
