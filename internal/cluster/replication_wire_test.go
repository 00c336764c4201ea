package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xtnl"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/replication.golden from this tree")

// sealedPayload returns the payload of a body sealed as pki.Seal writes
// it, or the body itself when it is not sealed: the document between
// <sealed …> and <signature>.
func sealedPayload(body string) string {
	if !strings.HasPrefix(body, "<sealed ") {
		return body
	}
	_, rest, _ := strings.Cut(body, ">")
	if i := strings.LastIndex(rest, "<signature>"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// TestReplicationWireGolden pins what store replication carries between
// a leader and a follower, each request's method and URI, the document a
// POST carries (inside its seal, when sealed) and each reply's status
// and body, to testdata/replication.golden byte for byte: the status
// probe, log windows of puts and a delete, a snapshot catch-up once the
// follower is behind the trimmed log, and each node's /cluster/status.
// The follower's store must end up holding what the leader's does. Run
// with -update-wire to record the file from this tree.
func TestReplicationWireGolden(t *testing.T) {
	keys := pki.MustGenerateKeyPair()
	ring := NewRing(0)
	var mu sync.Mutex
	var wire strings.Builder
	names := []string{"n1", `n<2> & "b"`}
	nodes := make([]*Node, len(names))
	urls := make([]string, len(names))
	for i, name := range names {
		tn := wsrpc.NewTNService(&negotiation.Party{Name: "AircraftCo", Profile: xtnl.NewProfile("AircraftCo"), Policies: xtnl.MustPolicySet()})
		tn.Logf = func(string, ...any) {}
		node, err := NewNode(Config{
			Name: name, Ring: ring, TN: tn, Keys: keys, MaxReplLog: 4,
			Transport: &wsrpc.Transport{Retry: wsrpc.RetryPolicy{MaxAttempts: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		db, err := store.OpenWithOptions(filepath.Join(t.TempDir(), "db"), store.Options{OnCommit: node.OnCommit})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		node.AttachDB(db)
		mux := http.NewServeMux()
		node.Register(mux)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, r)
			mu.Lock()
			fmt.Fprintf(&wire, "%s %s\n", r.Method, r.URL.RequestURI())
			if len(body) > 0 {
				fmt.Fprintf(&wire, "%s\n", sealedPayload(string(body)))
			}
			fmt.Fprintf(&wire, "%d %s\n", rec.Code, rec.Body)
			mu.Unlock()
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		}))
		defer srv.Close()
		nodes[i], urls[i] = node, srv.URL
		ring.Add(name)
	}
	leader, follower := nodes[0], nodes[1]
	for i, name := range names {
		for _, n := range nodes {
			n.SetPeer(name, urls[i])
		}
	}
	leader.Promote()
	db := leader.DB()
	put := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := db.PutXML("doc", fmt.Sprintf("k%02d <&>", i), fmt.Sprintf(`<doc n="%d">a &amp; b</doc>`, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	push := func(want uint64) {
		t.Helper()
		if err := leader.replicateTo(bg, names[1], leader.Head()); err != nil {
			t.Fatal(err)
		}
		if got := follower.Applied(); got != want {
			t.Fatalf("follower applied %d, want %d", got, want)
		}
	}
	put(0, 3)
	push(3) // a status probe, then one window
	put(3, 9)
	push(9) // behind the trimmed log: a snapshot
	put(9, 10)
	if err := db.Delete("doc", "k01 <&>"); err != nil {
		t.Fatal(err)
	}
	push(11) // a window of a put and a delete
	for _, u := range urls {
		resp, err := http.Get(u + "/cluster/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got, want := follower.DB().SnapshotEntries(), db.SnapshotEntries(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("follower holds %v, leader %v", got, want)
	}

	path := filepath.Join("testdata", "replication.golden")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(wire.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := wire.String(); got != string(golden) {
		t.Errorf("replication wire:\n%s\nwant, from %s:\n%s", got, path, golden)
	}
}
