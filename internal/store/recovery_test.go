package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// tornFixture builds a multi-frame segment image and its frame boundary
// offsets: boundaries[i] is the byte offset where frame i ends, so the
// state after replaying an image cut at offset c must be exactly the
// frames wholly below c.
func tornFixture(t *testing.T, n int) (pristine []byte, boundaries []int) {
	t.Helper()
	var buf []byte
	boundaries = []int{}
	for i := 0; i < n; i++ {
		var err error
		buf, err = appendFrame(buf, Entry{Op: OpPut, Kind: "doc", Key: fmt.Sprintf("k%d", i), Doc: fmt.Sprintf(`<d n="%d"/>`, i)})
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, len(buf))
	}
	return buf, boundaries
}

// framesBelow returns how many frames end at or before offset c.
func framesBelow(boundaries []int, c int) int {
	n := 0
	for _, b := range boundaries {
		if b <= c {
			n++
		}
	}
	return n
}

// checkRecovered opens base and asserts exactly the first want frames
// are visible, with their exact documents.
func checkRecovered(t *testing.T, base string, want int, context string) {
	t.Helper()
	s, err := Open(base)
	if err != nil {
		t.Fatalf("%s: open must never fail on a damaged tail: %v", context, err)
	}
	defer s.Close()
	if got := s.Count("doc"); got != want {
		t.Fatalf("%s: recovered %d records, want %d", context, got, want)
	}
	for i := 0; i < want; i++ {
		rec, err := s.Get("doc", fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("%s: committed record k%d lost: %v", context, i, err)
		}
		if wantDoc := fmt.Sprintf(`<d n="%d"/>`, i); rec.XML != wantDoc {
			t.Fatalf("%s: k%d corrupted: %q", context, i, rec.XML)
		}
	}
}

// TestExhaustiveTornTail truncates a segment at EVERY byte offset and
// separately flips EVERY byte: recovery must always succeed and always
// yield exactly the committed prefix (frames before the damage).
func TestExhaustiveTornTail(t *testing.T) {
	pristine, boundaries := tornFixture(t, 5)

	for cut := 0; cut <= len(pristine); cut++ {
		base := filepath.Join(t.TempDir(), "t.wal")
		if err := os.WriteFile(segmentPath(base, 1), pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		checkRecovered(t, base, framesBelow(boundaries, cut), fmt.Sprintf("truncate@%d", cut))
	}

	for flip := 0; flip < len(pristine); flip++ {
		base := filepath.Join(t.TempDir(), "t.wal")
		img := append([]byte(nil), pristine...)
		img[flip] ^= 0xFF
		if err := os.WriteFile(segmentPath(base, 1), img, 0o644); err != nil {
			t.Fatal(err)
		}
		// The CRC (or magic/length check) rejects the frame containing the
		// flipped byte; replay keeps everything before it and distrusts
		// everything after.
		want := framesBelow(boundaries, flip)
		checkRecovered(t, base, want, fmt.Sprintf("flip@%d", flip))
	}
}

// TestOpenRefusesUnparsableFrame: a frame whose CRC holds but whose
// document does not parse is corruption the checksum missed, so Open
// fails and names the record instead of serving it.
func TestOpenRefusesUnparsableFrame(t *testing.T) {
	var img []byte
	for _, e := range []Entry{
		{Op: OpPut, Kind: "doc", Key: "good", Doc: `<d/>`},
		{Op: OpPut, Kind: "doc", Key: "bad", Doc: `<d><e></d>`},
	} {
		var err error
		if img, err = appendFrame(img, e); err != nil {
			t.Fatal(err)
		}
	}
	base := filepath.Join(t.TempDir(), "t.wal")
	if err := os.WriteFile(segmentPath(base, 1), img, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(base)
	if err == nil {
		n := s.Count("doc")
		s.Close()
		t.Fatalf("Open served %d records past an unparsable frame", n)
	}
	if !strings.Contains(err.Error(), "store: record doc/bad: ") {
		t.Fatalf("error does not name the record doc/bad: %v", err)
	}
}

// TestCompactConcurrentPuts checkpoints repeatedly while writers commit —
// the online-checkpoint claim, meant to run under -race. Every
// acknowledged write must survive the churn and a reopen.
func TestCompactConcurrentPuts(t *testing.T) {
	base := filepath.Join(t.TempDir(), "t.wal")
	s, err := OpenWithOptions(base, Options{Durability: DurabilityGroup, SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	counts := make([]int, writers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.PutXML("doc", fmt.Sprintf("w%d-%d", w, i), fmt.Sprintf(`<d n="%d"/>`, i)); err != nil {
					t.Errorf("writer %d: put %d: %v", w, i, err)
					return
				}
				counts[w] = i + 1
			}
		}()
	}
	for i := 0; i < 8; i++ {
		if err := s.Compact(); err != nil {
			t.Fatalf("compact %d under write load: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	total := 0
	for w, n := range counts {
		total += n
		if n == 0 {
			t.Fatalf("writer %d never committed; test proves nothing", w)
		}
		for i := 0; i < n; i++ {
			if _, err := re.Get("doc", fmt.Sprintf("w%d-%d", w, i)); err != nil {
				t.Fatalf("acked write w%d-%d lost across compaction: %v", w, i, err)
			}
		}
	}
	if got := re.Count("doc"); got < total {
		t.Fatalf("recovered %d records, acked %d", got, total)
	}
}

// TestLegacyV1Migration: a v1 single-file WAL (frames straight at the
// base path, no segments, no snapshot) is no longer replayed or
// migrated. Open must fail naming the file and must leave it untouched.
func TestLegacyV1Migration(t *testing.T) {
	var buf []byte
	for _, e := range []Entry{
		{Op: OpPut, Kind: "cred", Key: "a", Doc: `<c n="1"/>`},
		{Op: OpPut, Kind: "cred", Key: "b", Doc: `<c n="2"/>`},
		{Op: OpPut, Kind: "cred", Key: "a", Doc: `<c n="3"/>`}, // overwrite
		{Op: OpDelete, Kind: "cred", Key: "b"},
		{Op: OpPut, Kind: "pol", Key: "p", Doc: `<p/>`},
	} {
		var err error
		if buf, err = appendFrame(buf, e); err != nil {
			t.Fatal(err)
		}
	}
	checkV1Refused(t, buf)
}

// TestLegacyV1TornTail: a v1 file with a torn final frame (the crash mode
// the v1 engine itself tolerated) is refused like any v1 file, and the
// refused Open must not truncate the torn tail.
func TestLegacyV1TornTail(t *testing.T) {
	var buf []byte
	var err error
	if buf, err = appendFrame(buf, Entry{Op: OpPut, Kind: "doc", Key: "k0", Doc: `<d n="0"/>`}); err != nil {
		t.Fatal(err)
	}
	if buf, err = appendFrame(buf, Entry{Op: OpPut, Kind: "doc", Key: "k1", Doc: `<d n="1"/>`}); err != nil {
		t.Fatal(err)
	}
	buf = append(buf, walMagic[0], walMagic[1], OpPut, 0) // torn header
	checkV1Refused(t, buf)
}

// checkV1Refused writes image as a v1 file at a fresh base path and
// requires Open to fail naming it, leaving its bytes unchanged.
func checkV1Refused(t *testing.T, image []byte) {
	t.Helper()
	base := filepath.Join(t.TempDir(), "legacy.wal")
	if err := os.WriteFile(base, image, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(base)
	if err == nil {
		s.Close()
		t.Fatal("Open replayed a v1 single-file WAL")
	}
	if !strings.Contains(err.Error(), base) {
		t.Fatalf("error does not name the v1 file: %v", err)
	}
	got, err := os.ReadFile(base)
	if err != nil {
		t.Fatalf("v1 file gone after a refused Open: %v", err)
	}
	if !bytes.Equal(got, image) {
		t.Fatalf("v1 file changed by a refused Open: %d bytes, was %d", len(got), len(image))
	}
}

// TestDamagedSealedSegmentRefused: rotation syncs a segment as it seals
// it, so a sealed segment that ends short is damage, not a torn tail.
// Replaying the later segments on top of the cut would serve the store
// with acknowledged writes missing from the middle of its log. Open must
// fail naming the damaged segment and leave every file as it found it.
func TestDamagedSealedSegmentRefused(t *testing.T) {
	base := filepath.Join(t.TempDir(), "t.wal")
	s, err := OpenWithOptions(base, Options{Durability: DurabilityGroup, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.PutXML("doc", fmt.Sprintf("k%02d", i), fmt.Sprintf(`<d n="%d"/>`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	refs, err := listSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) < 3 {
		t.Fatalf("workload made %d segments, want at least 3", len(refs))
	}
	img, err := os.ReadFile(refs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xFF
	if err := os.WriteFile(refs[0].path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, filepath.Dir(base))

	re, err := Open(base)
	if err == nil {
		n := re.Count("doc")
		re.Close()
		t.Fatalf("Open replayed past a damaged sealed segment (%d of 40 records served)", n)
	}
	if !strings.Contains(err.Error(), refs[0].path) {
		t.Fatalf("error does not name the damaged segment %s: %v", refs[0].path, err)
	}
	if after := dirImage(t, filepath.Dir(base)); !imagesEqual(before, after) {
		t.Fatalf("a refused Open changed the store's files:\nbefore %v\n after %v", sizes(before), sizes(after))
	}
}

// TestTornSegmentBeforeEmptyOneRecovers is the crash mid-rotation: the
// next segment exists but is empty, so the short one still holds the
// newest frames and its tail is an ordinary tear.
func TestTornSegmentBeforeEmptyOneRecovers(t *testing.T) {
	pristine, boundaries := tornFixture(t, 5)
	base := filepath.Join(t.TempDir(), "t.wal")
	cut := boundaries[2] + 3
	if err := os.WriteFile(segmentPath(base, 1), pristine[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(base, 2), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, base, 3, "torn segment before an empty one")
	fi, err := os.Stat(segmentPath(base, 1))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(boundaries[2]) {
		t.Fatalf("torn segment is %d bytes after recovery, want %d", fi.Size(), boundaries[2])
	}
}

// dirImage reads every file in dir.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := map[string][]byte{}
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[de.Name()] = b
	}
	return img
}

func imagesEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if other, ok := b[name]; !ok || !bytes.Equal(data, other) {
			return false
		}
	}
	return true
}

// sizes summarizes an image for failure messages.
func sizes(img map[string][]byte) map[string]int {
	out := make(map[string]int, len(img))
	for name, data := range img {
		out[name] = len(data)
	}
	return out
}
