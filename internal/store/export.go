package store

import (
	"errors"
	"fmt"
	"sort"
)

// Replication surface (internal/cluster).
//
// The segmented log's CRC-checked frames (EncodeEntries and DecodeFrames
// in wal.go) double as a replication wire format: a leader streams the
// frames its commit path produced, and a follower decodes them with the
// same torn-tail tolerance recovery uses — a transfer cut mid-frame
// yields the good prefix, and the sender resumes from the receiver's
// applied position. Snapshot catch-up reuses the same frames
// (SnapshotEntries is the live record set as put-frames, exactly what
// checkpoint snapshots store).

// SnapshotEntries returns every live record as a put entry in sorted
// (kind, key) order — a consistent full-state image, for checkpoint
// snapshots and follower catch-up alike.
func (s *Store) SnapshotEntries() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries := make([]Entry, 0, len(s.byKey))
	for _, kind := range sortedKeys(s.byKind) {
		km := s.byKind[kind]
		for _, key := range sortedKeys(km) {
			entries = append(entries, Entry{Op: OpPut, Kind: kind, Key: key, Doc: km[key].XML})
		}
	}
	return entries
}

// ApplyEntries applies replicated entries through the normal write path,
// idempotently: a put overwrites any existing record and a delete of a
// missing record is a no-op, so re-delivered frames converge instead of
// erroring.
func (s *Store) ApplyEntries(entries []Entry) error {
	for _, e := range entries {
		switch e.Op {
		case OpPut:
			if err := s.PutXML(e.Kind, e.Key, e.Doc); err != nil {
				return err
			}
		case OpDelete:
			if err := s.Delete(e.Kind, e.Key); err != nil && !errors.Is(err, ErrNotFound) {
				return err
			}
		default:
			return fmt.Errorf("store: unknown replicated op %q", e.Op)
		}
	}
	return nil
}

// Keys returns the keys of a kind, sorted (reconciliation scans).
func (s *Store) Keys(kind string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedKeys(s.byKind[kind])
}

// Kinds returns every kind holding at least one record, sorted.
func (s *Store) Kinds() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	kinds := make([]string, 0, len(s.byKind))
	for kind, km := range s.byKind {
		if len(km) > 0 {
			kinds = append(kinds, kind)
		}
	}
	sort.Strings(kinds)
	return kinds
}
