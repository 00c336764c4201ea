package store

import (
	"fmt"
	"os"
)

// fswalBackend is the store's persistence engine: a segmented
// write-ahead log of CRC-checked frames plus checkpoint snapshots (see
// segment.go, snapshot.go, wal.go for the formats). Append goes to the
// newest segment, Rotate seals it and opens the next, Snapshot writes the
// live set atomically and deletes sealed segments the image covers, and
// Recover is newest-snapshot + ascending segment replay with torn-tail
// truncation.
//
// Recover runs once, before the committer starts. Append, Sync, Rotate
// and Close run only on the committer goroutine. Snapshot runs
// concurrently with later Appends (the online checkpoint); Destroy runs
// only after Close has returned.
type fswalBackend struct {
	path string
	opts Options
	met  func() *storeMetrics

	// active is the segment receiving appends. Owned by the committer
	// goroutine once the store is open.
	active *activeSegment
}

// Recover refuses a v1 single-file WAL at the base path, loads the
// newest snapshot, then replays every segment at or above the snapshot's
// cover sequence, handing each batch of entries to apply with the file
// it came from. Rotation syncs a segment as it seals it, so only the
// newest frames can be torn: a segment may end short only when no later
// segment holds a good frame. A short segment followed by a good frame is
// corruption, and Recover fails naming it before it changes any file.
// Otherwise it removes a stale snapshot tmp, seals the segments the
// previous process left (torn tails cut, the newest synced) and creates
// a fresh active segment above everything seen, so appends never touch
// a file that might carry a torn tail.
func (b *fswalBackend) Recover(apply func(entries []Entry, source string) error) error {
	// The v1 engine kept the whole log in one file at the base path. This
	// version no longer replays it, and must neither ignore nor delete
	// the data in it.
	if fi, err := os.Stat(b.path); err == nil && fi.Mode().IsRegular() {
		return fmt.Errorf("store: %s is a v1 single-file WAL, which this version does not replay; move it aside to open the store", b.path)
	}
	snapEntries, coverSeq, err := loadSnapshot(b.path)
	if err != nil {
		return err
	}
	if err := apply(snapEntries, "snapshot"); err != nil {
		return err
	}
	refs, err := listSegments(b.path)
	if err != nil {
		return err
	}
	maxSeq := coverSeq
	var torn []segmentTail // every segment that ends short
	var newest segmentTail
	for _, ref := range refs {
		if ref.seq > maxSeq {
			maxSeq = ref.seq
		}
		if ref.seq < coverSeq {
			continue // summarized by the snapshot; awaiting deletion
		}
		entries, tail, err := readSegment(ref.path)
		if err != nil {
			return err
		}
		if len(entries) > 0 && len(torn) > 0 {
			return fmt.Errorf("store: sealed segment %s ends short after %d good bytes while a later segment holds frames; it is damaged, not torn, so the store is left as found", torn[0].path, torn[0].good)
		}
		if tail.good < tail.size {
			torn = append(torn, tail)
		}
		newest = tail
		if err := apply(entries, ref.path); err != nil {
			return err
		}
	}
	// A crash mid-checkpoint may leave a half-written snapshot tmp; it
	// was never published, so it is garbage.
	if err := os.Remove(snapshotTmpPath(b.path)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: remove stale snapshot tmp: %w", err)
	}
	seal := torn
	if newest.size > 0 && newest.good == newest.size {
		seal = append(seal, newest) // whole, but maybe not yet on disk
	}
	for _, t := range seal {
		if err := t.seal(); err != nil {
			return err
		}
	}
	active, err := createSegment(b.opts.FS, b.path, maxSeq+1)
	if err != nil {
		return err
	}
	b.active = active
	return nil
}

// Append commits one mutation batch: the batch's frames share one write
// and, under DurabilityGroup, one fsync. An error poisons the log (the
// committer never retries).
func (b *fswalBackend) Append(batch []Entry) error {
	buf, err := EncodeEntries(batch)
	if err != nil {
		return err
	}
	// Rotate before the write when the batch would overflow the segment
	// (a batch larger than a whole segment goes into one oversized
	// segment rather than being split).
	if b.active.size > 0 && b.active.size+int64(len(buf)) > b.opts.SegmentSize {
		if err := b.rotate(); err != nil {
			return err
		}
	}
	if _, err := b.active.f.Write(buf); err != nil {
		return fmt.Errorf("store: WAL append: %w", err)
	}
	b.active.size += int64(len(buf))
	m := b.met()
	m.appendedBytes.Add(int64(len(buf)))
	if b.opts.Durability == DurabilityGroup {
		if err := b.active.f.Sync(); err != nil {
			return fmt.Errorf("store: WAL fsync: %w", err)
		}
		m.fsyncs.Inc()
	}
	return nil
}

// Sync forces every appended batch so far to stable storage
// (Store.Sync and the final flush at Close).
func (b *fswalBackend) Sync() error {
	if err := b.active.f.Sync(); err != nil {
		return err
	}
	b.met().fsyncs.Inc()
	return nil
}

// rotate seals the active segment and switches appends to the next one.
// The old handle is kept until the new segment is durably created — if
// creation fails, appends continue on the still-valid old segment and
// the error surfaces to the batch (this is the fix for the v1
// wal.rewrite bug, where a failed swap left the log writing to an
// unlinked inode while Put kept returning nil).
func (b *fswalBackend) rotate() error {
	next, err := createSegment(b.opts.FS, b.path, b.active.seq+1)
	if err != nil {
		return err
	}
	old := b.active.f
	// Seal the outgoing segment: its bytes must be as durable as the
	// policy promises before the handle is abandoned.
	if err := old.Sync(); err != nil {
		next.f.Close()
		b.opts.FS.Remove(segmentPath(b.path, next.seq))
		return fmt.Errorf("store: seal segment %d: %w", b.active.seq, err)
	}
	b.active = next
	b.met().rotations.Inc()
	if err := old.Close(); err != nil {
		return fmt.Errorf("store: close sealed segment: %w", err)
	}
	return nil
}

// Rotate begins a checkpoint: it seals the active segment and returns the
// sequence of the next one. Everything in segments below it is exactly
// the live set captured at this boundary, which is what makes snapshot +
// later-segment replay recovery exact.
func (b *fswalBackend) Rotate() (uint64, error) {
	if err := b.rotate(); err != nil {
		return 0, err
	}
	return b.active.seq, nil
}

// Snapshot writes the checkpoint image covering segments below coverSeq (atomically published via rename), then delete
// the sealed segments the image supersedes. Runs concurrently with
// Appends into the post-rotation segment.
func (b *fswalBackend) Snapshot(coverSeq uint64, live []Entry) error {
	if err := writeSnapshot(b.opts.FS, b.path, coverSeq, live); err != nil {
		return err
	}
	// The snapshot now owns everything below coverSeq: sealed old
	// segments are garbage. A failed delete is retried by the next
	// checkpoint (recovery skips them by sequence), but still reported.
	var firstErr error
	refs, err := listSegments(b.path)
	if err != nil {
		return err
	}
	for _, ref := range refs {
		if ref.seq >= coverSeq {
			continue
		}
		if err := b.opts.FS.Remove(ref.path); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = fmt.Errorf("store: remove sealed segment %d: %w", ref.seq, err)
		}
	}
	return firstErr
}

// Close releases the active segment's handle. The committer calls Sync
// first when the durability policy requires it.
func (b *fswalBackend) Close() error {
	if b.active == nil {
		return nil
	}
	return b.active.f.Close()
}

// Destroy removes every file the log ever wrote.
func (b *fswalBackend) Destroy() error {
	paths := []string{snapshotPath(b.path), snapshotTmpPath(b.path)}
	if refs, err := listSegments(b.path); err == nil {
		for _, ref := range refs {
			paths = append(paths, ref.path)
		}
	}
	for _, p := range paths {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
