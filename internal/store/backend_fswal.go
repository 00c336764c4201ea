package store

import (
	"fmt"
	"os"

	"trustvo/internal/faultinject"
)

// fswalBackend is the crash-safe filesystem engine from PR 5 behind the
// Backend seam: a segmented write-ahead log of CRC-checked frames plus
// checkpoint snapshots (see segment.go, snapshot.go, wal.go for the
// formats). Append goes to the newest segment, Rotate seals it and opens
// the next, Snapshot writes the live set atomically and deletes sealed
// segments the image covers, and Recover is newest-snapshot + ascending
// segment replay with torn-tail truncation.
type fswalBackend struct {
	path string
	opts Options
	fs   faultinject.FS
	met  func() *storeMetrics

	// active is the segment receiving appends. Owned by the committer
	// goroutine once the store is open.
	active *activeSegment
}

// Recover implements Backend: refuse a v1 single-file WAL at the base
// path, remove a stale snapshot tmp, load the newest snapshot, then
// replay every segment at or above the snapshot's cover sequence. It
// finishes by creating a fresh active segment above everything seen, so
// appends never touch a file that might carry a torn tail.
func (b *fswalBackend) Recover(apply func(entries []walEntry, source string) error) error {
	// The v1 engine kept the whole log in one file at the base path. This
	// version no longer replays it, and must neither ignore nor delete
	// the data in it.
	if fi, err := os.Stat(b.path); err == nil && fi.Mode().IsRegular() {
		return fmt.Errorf("store: %s is a v1 single-file WAL, which this version does not replay; move it aside to open the store", b.path)
	}
	// A crash mid-checkpoint may leave a half-written snapshot tmp; it
	// was never published, so it is garbage.
	if err := os.Remove(snapshotTmpPath(b.path)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: remove stale snapshot tmp: %w", err)
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
	for _, ref := range refs {
		if ref.seq > maxSeq {
			maxSeq = ref.seq
		}
		if ref.seq < coverSeq {
			continue // summarized by the snapshot; awaiting deletion
		}
		entries, err := replaySegmentFile(ref.path)
		if err != nil {
			return err
		}
		if err := apply(entries, ref.path); err != nil {
			return err
		}
	}
	active, err := createSegment(b.fs, b.path, maxSeq+1)
	if err != nil {
		return err
	}
	b.active = active
	return nil
}

// Append implements Backend: the batch's frames share one write and —
// under a synchronous durability policy — one fsync.
func (b *fswalBackend) Append(batch []walEntry) error {
	var buf []byte
	for _, e := range batch {
		frame, err := appendFrame(buf, e)
		if err != nil {
			return err
		}
		buf = frame
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
	if b.opts.Durability != DurabilityOS {
		if err := b.active.f.Sync(); err != nil {
			return fmt.Errorf("store: WAL fsync: %w", err)
		}
		m.fsyncs.Inc()
	}
	return nil
}

// Sync implements Backend: fsync the active segment on demand.
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
	next, err := createSegment(b.fs, b.path, b.active.seq+1)
	if err != nil {
		return err
	}
	old := b.active.f
	// Seal the outgoing segment: its bytes must be as durable as the
	// policy promises before the handle is abandoned.
	if err := old.Sync(); err != nil {
		next.f.Close()
		b.fs.Remove(segmentPath(b.path, next.seq))
		return fmt.Errorf("store: seal segment %d: %w", b.active.seq, err)
	}
	b.active = next
	b.met().rotations.Inc()
	if err := old.Close(); err != nil {
		return fmt.Errorf("store: close sealed segment: %w", err)
	}
	return nil
}

// Rotate implements Backend: everything in segments below the returned
// sequence is exactly the live set captured at this boundary, which is
// what makes snapshot + later-segment replay recovery exact.
func (b *fswalBackend) Rotate() (uint64, error) {
	if err := b.rotate(); err != nil {
		return 0, err
	}
	return b.active.seq, nil
}

// Snapshot implements Backend: write the checkpoint image covering
// segments below coverSeq (atomically published via rename), then delete
// the sealed segments the image supersedes. Runs concurrently with
// Appends into the post-rotation segment.
func (b *fswalBackend) Snapshot(coverSeq uint64, live []walEntry) error {
	if err := writeSnapshot(b.fs, b.path, coverSeq, live); err != nil {
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
		if err := b.fs.Remove(ref.path); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = fmt.Errorf("store: remove sealed segment %d: %w", ref.seq, err)
		}
	}
	return firstErr
}

// Close implements Backend.
func (b *fswalBackend) Close() error {
	if b.active == nil {
		return nil
	}
	return b.active.f.Close()
}

// Destroy implements Backend.
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
