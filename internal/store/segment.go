package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"trustvo/internal/faultinject"
)

// Segmented log layout. A store opened at base path P owns these files,
// all siblings in P's directory:
//
//	P.snap          newest checkpoint snapshot (see snapshot.go)
//	P.snap.tmp      in-flight snapshot (ignored and removed on open)
//	P.NNNNNN.seg    log segments, NNNNNN = decimal sequence number
//
// A regular file at P itself is a v1 single-file WAL, which Open refuses
// rather than replay. Appends go only to the newest segment; rotation
// seals it and opens the next. Recovery = load P.snap, then replay
// segments with seq >= the snapshot's cover sequence in ascending order.
// Sealed segments below the cover sequence are garbage and deleted by
// Compact.

const (
	segSuffix  = ".seg"
	snapSuffix = ".snap"
	tmpSuffix  = ".snap.tmp"
)

func segmentPath(base string, seq uint64) string {
	return fmt.Sprintf("%s.%06d%s", base, seq, segSuffix)
}

func snapshotPath(base string) string    { return base + snapSuffix }
func snapshotTmpPath(base string) string { return base + tmpSuffix }

// segmentRef names one on-disk segment.
type segmentRef struct {
	seq  uint64
	path string
}

// listSegments returns the numbered segments for base, ascending by
// sequence number.
func listSegments(base string) ([]segmentRef, error) {
	dir := filepath.Dir(base)
	prefix := filepath.Base(base) + "."
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list segments: %w", err)
	}
	var refs []segmentRef
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		numPart := name[len(prefix) : len(name)-len(segSuffix)]
		seq, err := strconv.ParseUint(numPart, 10, 64)
		if err != nil || seq == 0 {
			continue // not one of ours
		}
		refs = append(refs, segmentRef{seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].seq < refs[j].seq })
	return refs, nil
}

// activeSegment is the segment currently receiving appends. Owned by the
// committer goroutine after Open returns.
type activeSegment struct {
	f    faultinject.File
	seq  uint64
	size int64
}

// createSegment creates and durably names the segment for seq.
func createSegment(fs faultinject.FS, base string, seq uint64) (*activeSegment, error) {
	path := segmentPath(base, seq)
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("store: create segment %d: %w", seq, err)
	}
	// A file is only durably *named* once its parent directory entry is
	// fsynced; without this, a crash shortly after rotation could leave
	// acknowledged frames in a file recovery never finds.
	if err := fs.SyncDir(path); err != nil {
		f.Close()
		fs.Remove(path)
		return nil, fmt.Errorf("store: sync dir for segment %d: %w", seq, err)
	}
	return &activeSegment{f: f, seq: seq}, nil
}

// segmentTail records where a replayed segment's whole frames end (good)
// and where its file ends (size); good < size is a torn tail.
type segmentTail struct {
	path       string
	good, size int64
}

// readSegment replays the frames of one on-disk segment. Reading is
// plain os I/O: recovery happens before any write is acknowledged, so it
// sits outside the crash-injection surface.
func readSegment(path string) ([]Entry, segmentTail, error) {
	tail := segmentTail{path: path}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, tail, nil
		}
		return nil, tail, fmt.Errorf("store: open segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, tail, fmt.Errorf("store: stat segment %s: %w", path, err)
	}
	entries, good := DecodeFrames(f)
	tail.good, tail.size = good, fi.Size()
	return entries, tail, nil
}

// seal cuts the segment back to its last whole frame and syncs it, so
// Recover can start the next segment behind it. The sync matters
// although the crash-torture harness crashes writes, not recovery: once
// frames land in the next segment, a cut that never reached the disk,
// or a tail the previous process left in the page cache, could reappear
// or vanish in front of them after a crash, and the rule that only the
// newest frames may end short would refuse a healthy store.
func (t segmentTail) seal() error {
	f, err := os.OpenFile(t.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("store: seal segment %s: %w", t.path, err)
	}
	if t.good < t.size {
		if err := f.Truncate(t.good); err != nil {
			f.Close()
			return fmt.Errorf("store: truncate torn tail of %s: %w", t.path, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync segment %s: %w", t.path, err)
	}
	return f.Close()
}
