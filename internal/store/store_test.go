package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"trustvo/internal/xmldom"
)

func el(t testing.TB, s string) *xmldom.Node {
	t.Helper()
	n, err := xmldom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPutGetDelete(t *testing.T) {
	s := New()
	if err := s.Put("credential", "c1", el(t, `<credential type="ISO"><header/></credential>`)); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Get("credential", "c1")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmldom.ParseString(rec.XML)
	if err != nil {
		t.Fatal(err)
	}
	if typ := doc.AttrOr("type", ""); typ != "ISO" {
		t.Fatalf("type = %q", typ)
	}
	if err := s.Delete("credential", "c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("credential", "c1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
	if err := s.Delete("credential", "c1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	s := New()
	doc := el(t, `<d/>`)
	if err := s.Put("", "k", doc); err == nil {
		t.Fatal("empty kind accepted")
	}
	if err := s.Put("k", "", doc); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Put("a\x00b", "k", doc); err == nil {
		t.Fatal("NUL kind accepted")
	}
	if err := s.PutXML("k", "k", "<broken"); err == nil {
		t.Fatal("broken XML accepted")
	}
}

func TestOverwriteUpdatesTypeIndex(t *testing.T) {
	s := New()
	s.Put("c", "k", el(t, `<credential type="A"/>`))
	s.Put("c", "k", el(t, `<credential type="B"/>`))
	recs := s.List("c")
	if len(recs) != 1 || s.Count("c") != 1 {
		t.Fatalf("overwrite left %d records (Count %d), want 1", len(recs), s.Count("c"))
	}
	if want := `<credential type="B"/>`; recs[0].XML != want {
		t.Fatalf("overwritten record = %s, want %s", recs[0].XML, want)
	}
}

// TestPutRefusesUnparsableTree: Put stores a tree's canonical form only
// when that form parses back, and names the record when it does not.
func TestPutRefusesUnparsableTree(t *testing.T) {
	badName := xmldom.NewElement("a b")
	badText := xmldom.NewElement("d")
	badText.AppendChild(xmldom.NewText("x\x01y"))
	for _, doc := range []*xmldom.Node{badName, badText} {
		s := New()
		err := s.Put("kind", "key", doc)
		if err == nil || !strings.HasPrefix(err.Error(), "store: record kind/key: ") {
			t.Errorf("Put(%q) = %v, want a store: record kind/key: error", doc.XML(), err)
		}
		if s.Count("kind") != 0 {
			t.Errorf("Put(%q) stored the record", doc.XML())
		}
	}
}

// putBuildsNoTreeDoc is a compact policy document of 236 bytes, the
// shape of the policies a party reload reads.
const putBuildsNoTreeDoc = `<policy polID="pol-01" type="disclosure"><resource target="CtlCredential01"/><properties><certificate targetCertType="WebDesignerQuality"><certCond>/credential/content/regulation='ISO 9001'</certCond></certificate></properties></policy>`

func BenchmarkPutOverwrite(b *testing.B) {
	s := New()
	doc := el(b, putBuildsNoTreeDoc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("policy", "pol-01", doc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPutBuildsNoTree: a put serializes its document and checks the
// bytes without parsing them into a tree, so overwriting one key costs
// the canonical string and little more.
func TestPutBuildsNoTree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	res := testing.Benchmark(BenchmarkPutOverwrite)
	if res.N == 0 {
		t.Fatal("BenchmarkPutOverwrite did not run")
	}
	if got, limit := res.AllocedBytesPerOp(), int64(len(putBuildsNoTreeDoc)+256); got >= limit {
		t.Fatalf("overwriting put allocates %d B/op, want under %d", got, limit)
	}
}

func TestListSorted(t *testing.T) {
	s := New()
	for _, k := range []string{"z", "a", "m"} {
		s.Put("p", k, el(t, `<p/>`))
	}
	recs := s.List("p")
	if len(recs) != 3 || recs[0].Key != "a" || recs[2].Key != "z" {
		t.Fatalf("List order: %v", []string{recs[0].Key, recs[1].Key, recs[2].Key})
	}
	if got := s.List("missing"); len(got) != 0 {
		t.Fatalf("List of unknown kind = %d", len(got))
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.PutXML("policy", "p1", `<policy type="disclosure"><resource target="R"/><properties><certificate targetCertType="T"/></properties></policy>`)
	s.PutXML("policy", "p2", `<policy type="delivery"><resource target="S"/></policy>`)
	s.Delete("policy", "p2")
	s.PutXML("policy", "p1", `<policy type="delivery"><resource target="R2"/></policy>`) // overwrite
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count("policy") != 1 {
		t.Fatalf("replayed count = %d", re.Count("policy"))
	}
	rec, err := re.Get("policy", "p1")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := xmldom.ParseString(rec.XML)
	if doc.Child("resource").AttrOr("target", "") != "R2" {
		t.Fatalf("overwrite lost on replay: %s", rec.XML)
	}
}

// newestSegment returns the path of the highest-numbered segment file.
func newestSegment(t testing.TB, base string) string {
	t.Helper()
	refs, err := listSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("no segments on disk")
	}
	return refs[len(refs)-1].path
}

// diskFootprint sums the sizes of every file the store owns at base.
func diskFootprint(t testing.TB, base string) int64 {
	t.Helper()
	var total int64
	paths := []string{base, snapshotPath(base)}
	refs, err := listSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range refs {
		paths = append(paths, ref.path)
	}
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}

func TestTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.PutXML("k", "good1", `<d n="1"/>`)
	s.PutXML("k", "good2", `<d n="2"/>`)
	s.Close()

	// simulate a crash mid-write: append a partial frame to the segment
	// that was active when the "crash" hit
	seg := newestSegment(t, path)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{'T', 'V', 'P', 0, 3}) // header cut short
	f.Close()
	before, _ := os.Stat(seg)

	re, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if re.Count("k") != 2 {
		t.Fatalf("count after torn tail = %d", re.Count("k"))
	}
	// torn tail was truncated
	after, _ := os.Stat(seg)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	// and the store keeps working
	if err := re.PutXML("k", "good3", `<d n="3"/>`); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Count("k") != 3 {
		t.Fatalf("post-recovery write lost: %d", re2.Count("k"))
	}
}

func TestCorruptedFrameStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	s, _ := Open(path)
	s.PutXML("k", "a", `<d/>`)
	s.PutXML("k", "b", `<d/>`)
	s.Close()

	// flip a byte in the middle of the second frame
	seg := newestSegment(t, path)
	data, _ := os.ReadFile(seg)
	data[len(data)-6] ^= 0xFF
	os.WriteFile(seg, data, 0o644)

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count("k") != 1 {
		t.Fatalf("replay past corruption: count = %d", re.Count("k"))
	}
}

func TestCompactShrinksLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.wal")
	s, _ := Open(path)
	for i := 0; i < 50; i++ {
		s.PutXML("k", "same", fmt.Sprintf(`<d n="%d"/>`, i))
	}
	s.Sync()
	before := diskFootprint(t, path)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := diskFootprint(t, path)
	if after >= before {
		t.Fatalf("compact did not shrink: %d -> %d", before, after)
	}
	// the checkpoint deleted the sealed pre-compaction segments
	if refs, _ := listSegments(path); len(refs) != 1 {
		t.Fatalf("sealed segments not reclaimed: %d left", len(refs))
	}
	// post-compact writes and replay still work
	s.PutXML("k", "extra", `<d/>`)
	s.Close()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count("k") != 2 {
		t.Fatalf("count after compact+reopen = %d", re.Count("k"))
	}
	rec, _ := re.Get("k", "same")
	doc, _ := xmldom.ParseString(rec.XML)
	if doc.AttrOr("n", "") != "49" {
		t.Fatalf("latest version lost: %s", rec.XML)
	}
}

func TestInMemoryNoWALOps(t *testing.T) {
	s := New()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Path() != "" {
		t.Fatal("in-memory path should be empty")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k-%d-%d", g, i)
				if err := s.PutXML("c", key, fmt.Sprintf(`<credential type="T%d"/>`, g)); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get("c", key); err != nil {
					t.Error(err)
					return
				}
				s.List("c")
			}
		}(g)
	}
	wg.Wait()
	if s.Count("c") != 400 {
		t.Fatalf("Count = %d", s.Count("c"))
	}
}

// Property: WAL frames round-trip arbitrary kind/key/doc strings.
func TestQuickWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(keyRaw, val string) bool {
		i++
		path := filepath.Join(dir, fmt.Sprintf("q%d.wal", i))
		s, err := Open(path)
		if err != nil {
			return false
		}
		key := "k" + fmt.Sprintf("%x", keyRaw) // printable, non-empty
		doc := xmldom.NewElement("d")
		doc.AppendChild(xmldom.NewText(sanitizeXML(val)))
		if err := s.Put("kind", key, doc); err != nil {
			return false
		}
		want := doc.XML()
		s.Close()
		re, err := Open(path)
		if err != nil {
			return false
		}
		defer re.Close()
		rec, err := re.Get("kind", key)
		if err != nil {
			return false
		}
		return rec.XML == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func sanitizeXML(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r >= 0x20 && r != 0x7F && r <= 0xD7FF {
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkPut(b *testing.B) {
	s := New()
	doc := el(b, `<credential type="ISO"><content><level>3</level></content></credential>`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("c", fmt.Sprintf("k%d", i), doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutWAL(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	s, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	doc := el(b, `<credential type="ISO"><content><level>3</level></content></credential>`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("c", fmt.Sprintf("k%d", i), doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s := New()
	for i := 0; i < 1000; i++ {
		s.PutXML("c", fmt.Sprintf("k%d", i), `<credential type="ISO"/>`)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("c", fmt.Sprintf("k%d", i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOpenDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "durable.wal")
	s, err := OpenDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutXML("k", "a", `<d/>`); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k", "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutXML("k", "b", `<d/>`); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Count("k") != 1 {
		t.Fatalf("count = %d", re.Count("k"))
	}
}

func BenchmarkPutWALDurable(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench-durable.wal")
	s, err := OpenDurable(path)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	doc := el(b, `<credential type="ISO"><content><level>3</level></content></credential>`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("c", fmt.Sprintf("k%d", i), doc); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestDurablePutAllocs keeps the committer's batch buffer on its stack:
// a durable put on an idle store commits as a batch of one, and the
// whole put allocates well under the 128-slot buffer's size.
func TestDurablePutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	res := testing.Benchmark(BenchmarkPutWALDurable)
	if res.N == 0 {
		t.Fatal("BenchmarkPutWALDurable did not run")
	}
	if got := res.AllocedBytesPerOp(); got >= 4<<10 {
		t.Fatalf("durable put allocates %d B/op, want under 4 KiB", got)
	}
}
