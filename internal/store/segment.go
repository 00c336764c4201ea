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

// replaySegmentFile replays the frames of one on-disk segment and
// truncates a torn tail so the file never re-tears at
// the same spot. Reading is plain os I/O: recovery happens before any
// write is acknowledged, so it sits outside the crash-injection surface.
func replaySegmentFile(path string) ([]walEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: open segment: %w", err)
	}
	defer f.Close()
	entries, good, err := replayFrames(f)
	if err != nil {
		return nil, fmt.Errorf("store: replay %s: %w", path, err)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		if err := os.Truncate(path, good); err != nil {
			return nil, fmt.Errorf("store: truncate torn tail of %s: %w", path, err)
		}
	}
	return entries, nil
}
