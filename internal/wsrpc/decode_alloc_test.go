package wsrpc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/vo"
	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// captureJoin runs one join of the benchmark's shape (the Aircraft
// Optimization VO's admission rule, proven with two credentials from two
// authorities) through a TN service and returns the eight documents it
// sent: the start request and reply, then each exchange's envelope and
// reply.
func captureJoin(t *testing.T) []string {
	t.Helper()
	ca, aaa := pki.MustNewAuthority("CertCA"), pki.MustNewAuthority("AAA")
	trust := pki.NewTrustStore(ca, aaa)
	resource := vo.MembershipResource("AircraftOptimizationVO", "DesignWebPortal")
	ctl := &negotiation.Party{
		Name:    "AircraftCo",
		Profile: xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(
			resource + " <- WebDesignerQuality(regulation='UNI EN ISO 9000'), AAAMember")...),
		Trust: trust,
		Grant: func(resource, peer string) ([]byte, error) { return []byte("ok"), nil },
	}
	prof := xtnl.NewProfile("DesignPortalCo")
	prof.Add(ca.MustIssue(pki.IssueRequest{Type: "WebDesignerQuality", Holder: "DesignPortalCo",
		Attributes: []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}}}))
	prof.Add(aaa.MustIssue(pki.IssueRequest{Type: "AAAMember", Holder: "DesignPortalCo"}))
	member := &negotiation.Party{Name: "DesignPortalCo", Profile: prof, Policies: xtnl.MustPolicySet(), Trust: trust}

	mux := http.NewServeMux()
	NewTNService(ctl).Register(mux)
	var docs []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, r)
		docs = append(docs, string(body), rec.Body.String())
		SetContentType(w.Header())
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()
	client := &TNClient{BaseURL: srv.URL, Party: member}
	if out, err := client.Negotiate(bg, resource); err != nil || !out.Succeeded {
		t.Fatalf("join: %v %+v", err, out)
	}
	if len(docs) != 8 {
		t.Fatalf("captured %d documents, want 8", len(docs))
	}
	return docs
}

// TestJoinDocumentsDecodeAllocations decodes one join's eight documents
// as the service and the client decode them, through the Reader: it
// allocates the decoded values and nothing for a tree. Parsing the same
// documents into trees and decoding those took 66 allocations and
// 13,740 bytes.
func TestJoinDocumentsDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	docs := captureJoin(t)
	decode := func() {
		if strategy, ok, err := readStartRequest(docs[0]); !ok || err != nil || strategy == "" {
			t.Fatalf("start request %q: %v", docs[0], err)
		}
		if id, err := readReply(docs[1], startReply); err != nil || id == "" {
			t.Fatalf("start reply %q: %v", docs[1], err)
		}
		for i := 2; i < len(docs); i += 2 {
			if env, err := DecodeEnvelope(docs[i]); err != nil || env.Err != nil {
				t.Fatalf("envelope %q: %v %v", docs[i], err, env.Err)
			}
			if _, err := readReply(docs[i+1], exchangeReply); err != nil {
				t.Fatalf("reply %q: %v", docs[i+1], err)
			}
		}
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, decode)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		decode()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("eight documents, %d bytes: %.0f allocations, %.0f bytes", docsLen(docs), allocs, perRun)
	if allocs > maxJoinDecodeAllocs || perRun > maxJoinDecodeBytes {
		t.Errorf("decoding one join's documents takes %.0f allocations and %.0f bytes, want at most %d and %d",
			allocs, perRun, maxJoinDecodeAllocs, maxJoinDecodeBytes)
	}
}

// The bounds of TestJoinDocumentsDecodeAllocations, as measured (33
// allocations, 3,147 bytes, for 3,051 bytes of documents): the decoded
// messages, policies, credentials and their slices. The byte bound
// leaves room for what other goroutines allocate meanwhile.
const (
	maxJoinDecodeAllocs = 33
	maxJoinDecodeBytes  = 3400
)

// readReply decodes a reply body through decode, as an attempt of the
// client transport does.
func readReply[T any](body string, decode func(*xmldom.Reader) (T, error)) (T, error) {
	r := xmldom.NewReader(body)
	var v T
	var err error
	if r.Child(0) {
		v, err = decode(r)
	}
	if cerr := r.Close(); cerr != nil {
		return v, cerr
	}
	return v, err
}

func docsLen(docs []string) (n int) {
	for _, d := range docs {
		n += len(d)
	}
	return n
}
