package store

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"trustvo/internal/xmldom"
)

// Read-path aliasing regression tests. Get and List used to return the
// store's live *Record, whose lazily parsed *xmldom.Node was shared by
// every later reader, so a caller mutating a returned record's document
// (or XML field) silently corrupted the store. The read path returns
// copies, and a record's Doc parses afresh; these tests mutate what they
// are handed and assert the store is unaffected.

// TestGetReturnsDefensiveCopy mutates both the XML field and the parsed
// document of a Get result.
func TestGetReturnsDefensiveCopy(t *testing.T) {
	s := New()
	const orig = `<credential type="ISOCert"><f v="1"/></credential>`
	if err := s.PutXML("cred", "a", orig); err != nil {
		t.Fatal(err)
	}
	want := mustGetXML(t, s, "cred", "a")

	rec, err := s.Get("cred", "a")
	if err != nil {
		t.Fatal(err)
	}
	rec.XML = `<poisoned/>`
	doc, err := xmldom.ParseString(rec.XML)
	if err != nil {
		t.Fatal(err)
	}
	doc.SetAttr("type", "Forged")

	if got := mustGetXML(t, s, "cred", "a"); got != want {
		t.Fatalf("store mutated through a Get result:\n got: %s\nwant: %s", got, want)
	}
	mustFreshType(t, s, "ISOCert")
}

// TestListAndByTypeAttrReturnDefensiveCopies does the same through the
// bulk read path, including a fresh reader's parse being unaffected.
func TestListAndByTypeAttrReturnDefensiveCopies(t *testing.T) {
	s := New()
	if err := s.PutXML("cred", "a", `<credential type="ISOCert"/>`); err != nil {
		t.Fatal(err)
	}
	want := mustGetXML(t, s, "cred", "a")

	recs := s.List("cred")
	if len(recs) != 1 {
		t.Fatalf("read returned %d records, want 1", len(recs))
	}
	doc, err := xmldom.ParseString(recs[0].XML)
	if err != nil {
		t.Fatal(err)
	}
	doc.SetAttr("type", "Forged")
	recs[0].XML = "<junk/>"
	if got := mustGetXML(t, s, "cred", "a"); got != want {
		t.Fatalf("store mutated through a bulk read:\n got: %s\nwant: %s", got, want)
	}
	mustFreshType(t, s, "ISOCert")
}

// mustFreshType checks that a fresh read of cred/a parses from the
// pristine XML, not a mutated tree.
func mustFreshType(t *testing.T, s *Store, want string) {
	t.Helper()
	fresh, err := s.Get("cred", "a")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmldom.ParseString(fresh.XML)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.AttrOr("type", ""); got != want {
		t.Fatalf("fresh read sees mutated document: type=%q", got)
	}
}

func mustGetXML(t *testing.T, s *Store, kind, key string) string {
	t.Helper()
	rec, err := s.Get(kind, key)
	if err != nil {
		t.Fatal(err)
	}
	return rec.XML
}

// TestDestroyCloseRace is the regression test for the shutdown race:
// Destroy (and a bare Close) used to return while the committer goroutine
// could still be flushing, so Destroy could race file removal against an
// in-flight segment append or snapshot write. Close now always waits for
// the committer to exit, and Destroy additionally fences on the
// checkpoint mutex. Run under -race with writers and a checkpoint in
// flight while Destroy fires.
func TestDestroyCloseRace(t *testing.T) {
	t.Run("backend=fswal", func(t *testing.T) {
		for iter := 0; iter < 20; iter++ {
			base := filepath.Join(t.TempDir(), "t.wal")
			s, err := OpenWithOptions(base, Options{
				Durability: DurabilityGroup, SegmentSize: tortureSegmentSize,
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			start := make(chan struct{})
			for w := 0; w < 4; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; ; i++ {
						if err := s.PutXML("doc", keyFor(w, i), `<d pad="xxxxxxxxxxxxxxxx"/>`); err != nil {
							// ErrWALClosed (or poison after it) is the only
							// legal failure once Destroy has begun.
							if !errors.Is(err, ErrWALClosed) {
								t.Errorf("writer %d: %v", w, err)
							}
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				s.Compact() // may lose the race to Destroy; error is fine
			}()
			close(start)
			if err := s.Destroy(); err != nil {
				t.Fatalf("destroy under load: %v", err)
			}
			wg.Wait()
		}
	})
}

func keyFor(w, i int) string { return string(rune('a'+w)) + "-" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}
