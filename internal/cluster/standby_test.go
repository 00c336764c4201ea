package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"trustvo/internal/pki"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xmldom"
)

// Regression tests for the standby authentication gap vetvo's credtaint
// analyzer surfaced: standby ships used to travel and be adopted
// unsigned, so a forged POST to /cluster/standby could hijack a
// negotiation through the failover path. Ships are now sealed with the
// cluster key and opened — expiry before signature — at POST ingress,
// at local takeStandby, and at remote fetchStandby.

// postStandby POSTs a raw standby ship body and returns the status code.
func postStandby(t *testing.T, base, body string) int {
	t.Helper()
	resp, err := http.Post(base+"/cluster/standby", "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func TestStandbyShipRejectsUnsignedAndForged(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	c.addNode("a")
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-1")

	// No signature at all: schema rejection.
	bare := &pki.Sealed{Label: pki.LabelStandby, NotAfter: time.Now().Add(time.Hour), Payload: doc}
	if got := postStandby(t, b.srv.URL, bare.XML()); got != http.StatusBadRequest {
		t.Fatalf("unsigned ship: got %d, want %d", got, http.StatusBadRequest)
	}

	// Signed by a key the cluster does not hold: signature rejection.
	intruder := pki.MustGenerateKeyPair()
	forged := pki.Seal(intruder, pki.LabelStandby, time.Now().Add(time.Hour), doc.Encode)
	if got := postStandby(t, b.srv.URL, forged.XML()); got != http.StatusForbidden {
		t.Fatalf("forged ship: got %d, want %d", got, http.StatusForbidden)
	}

	// Nothing above may have entered the standby table.
	if n := b.node.StandbyCount(); n != 0 {
		t.Fatalf("rejected ships left %d standby entries", n)
	}
}

func TestStandbyShipRejectsExpired(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-2")
	ship := pki.Seal(c.keys, pki.LabelStandby, time.Now().Add(-time.Minute), doc.Encode)
	if got := postStandby(t, b.srv.URL, ship.XML()); got != http.StatusGone {
		t.Fatalf("expired ship: got %d, want %d", got, http.StatusGone)
	}
}

// TestSealedLabelsDoNotCross: a standby ship and a resume ticket can be
// sealed under the same key; each carries its own label, so a document
// sealed for another use is not accepted as a standby ship.
func TestSealedLabelsDoNotCross(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	c.addNode("a")
	b := c.addNode("b")

	resume := pki.Seal(c.keys, pki.LabelResume, time.Now().Add(time.Hour),
		xmldom.NewElement("tnSession").SetAttr("id", "cross-2").Encode)
	if got := postStandby(t, b.srv.URL, resume.XML()); got != http.StatusBadRequest {
		t.Fatalf("resume-labelled document on /cluster/standby: got %d, want %d", got, http.StatusBadRequest)
	}
	if b.tn.HasSession("cross-2") {
		t.Fatal("a cross-labelled document was adopted")
	}
	if n := b.node.StandbyCount(); n != 0 {
		t.Fatalf("a cross-labelled document entered the standby table (%d entries)", n)
	}
}

func TestStandbySignedRoundTrip(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	c.addNode("a")
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-3")
	ship, err := b.node.seal(doc.Encode)
	if err != nil {
		t.Fatal(err)
	}
	if got := postStandby(t, b.srv.URL, ship); got != http.StatusOK {
		t.Fatalf("legitimate ship: got %d, want %d", got, http.StatusOK)
	}
	adopted, ok := b.node.takeStandby("sess-3")
	if !ok {
		t.Fatal("takeStandby refused a legitimately signed ship")
	}
	if adopted.AttrOr("id", "") != "sess-3" {
		t.Fatalf("takeStandby returned wrong doc: %s", adopted.XML())
	}
}

func TestTakeStandbyRefusesTamperedTable(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-4")
	ship, err := b.node.seal(doc.Encode)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the stored snapshot after signing: the signature no
	// longer covers what would be adopted.
	tampered := strings.Replace(ship, "sess-4", "sess-x", 1)
	b.node.putStandby("sess-4", tampered, 0)
	if _, ok := b.node.takeStandby("sess-4"); ok {
		t.Fatal("takeStandby adopted a tampered snapshot")
	}
}

func TestHandleStandbyGetRefusesStale(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-5")
	ship, err := b.node.seal(doc.Encode)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a snapshot far past the table TTL; the GET surrender path
	// must apply the same staleness rule takeStandby does.
	b.node.mu.Lock()
	b.node.standby["sess-5"] = standbyDoc{xml: ship, at: time.Now().Add(-24 * time.Hour)}
	b.node.mu.Unlock()

	resp, err := http.Get(b.srv.URL + "/cluster/standby?negotiation=sess-5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stale standby GET: got %d, want %d", resp.StatusCode, http.StatusNotFound)
	}
	if n := b.node.StandbyCount(); n != 0 {
		t.Fatalf("stale snapshot still held after GET (%d entries)", n)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// liveSession starts a one-node cluster holding one live session past its
// first message, the state every later message ships.
func liveSession(tb testing.TB) (*testCluster, *testNode) {
	tb.Helper()
	c := newTestCluster(tb, false, 0)
	n1 := c.addNode("n1")
	resp, err := http.Post(n1.srv.URL+"/tn/policyExchange", wsrpc.ContentType,
		strings.NewReader(firstEnvelope(tb, c, "ShipMember", "ship-1")))
	if err != nil {
		c.shutdown()
		tb.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !n1.tn.HasSession("ship-1") {
		c.shutdown()
		tb.Fatalf("first message: status %d", resp.StatusCode)
	}
	return c, n1
}

// TestShipAllocations guards the per-message ship: after a session's
// first message, writing its document, sealing it and writing the wire
// form take at most 8 allocations, the HTTP call aside. ReshipSessions
// hands the hook the encoder the exchange handler would.
func TestShipAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, n1 := liveSession(t)
	defer c.shutdown()
	var wire string
	n1.tn.OnSessionUpdate = func(_ context.Context, _ string, encode func(*xmldom.Writer)) error {
		ship, err := n1.node.seal(encode)
		wire = ship
		return err
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := n1.tn.ReshipSessions(bg); err != nil {
			t.Fatal(err)
		}
	})
	if wire == "" {
		t.Fatal("nothing shipped")
	}
	if allocs > 8 {
		t.Errorf("one ship allocates %.1f times, want at most 8", allocs)
	}
}

// BenchmarkStandbyShip prices one standby ship of a live session after
// its first message, without HTTP: from the encoder the exchange handler
// passes, the session document is sealed and written as ship writes it,
// then read and opened as the standby POST opens it.
func BenchmarkStandbyShip(b *testing.B) {
	c, n1 := liveSession(b)
	defer c.shutdown()
	var size int
	n1.tn.OnSessionUpdate = func(_ context.Context, _ string, encode func(*xmldom.Writer)) error {
		ship, err := n1.node.seal(encode)
		if err != nil {
			return err
		}
		root, err := xmldom.ParseString(ship)
		if err != nil {
			return err
		}
		size = len(ship)
		_, err = n1.node.openSession(root)
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n1.tn.ReshipSessions(bg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "ship-bytes")
}

// TestStandbyKeepsFresherShip: ships are retried, so an older ship can
// reach the successor after a fresher one. The table keeps the copy that
// covers the later message; an equal lastSeq, a replay's re-ship,
// replaces it.
func TestStandbyKeepsFresherShip(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	b := c.addNode("b")

	ship := func(seq, mark string) string {
		doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-seq").SetAttr("lastSeq", seq).SetAttr("mark", mark)
		wire, err := b.node.seal(doc.Encode)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	held := func() *xmldom.Node {
		t.Helper()
		b.node.mu.Lock()
		d := b.node.standby["sess-seq"]
		b.node.mu.Unlock()
		root, err := xmldom.ParseString(d.xml)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := b.node.openSession(root)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	for _, s := range []struct{ seq, mark, wantSeq, wantMark string }{
		{"2", "first", "2", "first"},
		{"1", "late", "2", "first"}, // an older ship arriving late
		{"2", "replay", "2", "replay"},
		{"3", "next", "3", "next"},
	} {
		if got := postStandby(t, b.srv.URL, ship(s.seq, s.mark)); got != http.StatusOK {
			t.Fatalf("ship lastSeq=%s: status %d", s.seq, got)
		}
		if doc := held(); doc.AttrOr("lastSeq", "") != s.wantSeq || doc.AttrOr("mark", "") != s.wantMark {
			t.Fatalf("after ship lastSeq=%s the table holds %s", s.seq, doc.XML())
		}
	}
	// handOver stores through the same rule.
	if kept := b.node.putStandby("sess-seq", ship("1", "handed"), 1); !strings.Contains(kept, `mark="next"`) {
		t.Fatalf("an older handed-over copy replaced the held one: %s", kept)
	}
	doc, ok := b.node.takeStandby("sess-seq")
	if !ok || doc.AttrOr("lastSeq", "") != "3" {
		t.Fatalf("takeStandby = %v, %v; want lastSeq 3", doc, ok)
	}
}

// fill reads as an endless run of one byte.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestExchangeBodyBoundedLikeService: an exchange body beyond the TN
// envelope limit costs a cluster node no more than the limit, and gets
// the answer a single TN service gives it.
func TestExchangeBodyBoundedLikeService(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n1 := c.addNode("n1")
	const size = 8 << 20
	post := func(mux *http.ServeMux) *httptest.ResponseRecorder {
		body := io.MultiReader(
			strings.NewReader(`<envelope negotiation="big-1" seq="1"><tnMessage type="fail" from="m"><reason>`),
			io.LimitReader(fill('a'), size))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tn/policyExchange", body))
		return rec
	}

	single := http.NewServeMux()
	wsrpc.NewTNService(c.controllerParty()).Register(single)
	want := post(single)

	routed := http.NewServeMux()
	n1.node.Register(routed)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := post(routed)
	runtime.ReadMemStats(&after)

	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("an %d MiB exchange body allocates %.1f MiB on a cluster node", size>>20, float64(alloc)/(1<<20))
	}
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") || got.Body.String() != want.Body.String() {
		t.Errorf("cluster node answers %d %s, single service %d %s", got.Code, got.Body, want.Code, want.Body)
	}
	if want.Code != http.StatusBadRequest || !strings.Contains(want.Body.String(), `code="parse"`) {
		t.Errorf("single service answers %d %s, want a 400 parse fault", want.Code, want.Body)
	}
}

// TestConcurrentSessionShips runs joins on one node at once, so their
// standby ships reach the same successor concurrently; each session's
// freshest shipped state is what the successor holds. Run it with -race
// -count=10.
func TestConcurrentSessionShips(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n1 := c.addNode("n1")
	n2 := c.addNode("n2")
	const joins = 8
	clients := make([]*wsrpc.TNClient, joins)
	for i := range clients {
		clients[i] = &wsrpc.TNClient{BaseURL: n1.srv.URL, Party: c.memberParty(fmt.Sprintf("ShipMember%d", i))}
	}
	errs := make(chan error, joins)
	for _, cli := range clients {
		go func() {
			out, err := cli.Negotiate(bg, chaosResource)
			if err == nil && !out.Succeeded {
				err = fmt.Errorf("join refused: %s", out.Reason)
			}
			errs <- err
		}()
	}
	for range clients {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	n2.node.mu.Lock()
	ids := make([]string, 0, len(n2.node.standby))
	for id := range n2.node.standby {
		ids = append(ids, id)
	}
	n2.node.mu.Unlock()
	if len(ids) != joins {
		t.Fatalf("successor holds %d standby copies, want %d", len(ids), joins)
	}
	// A join ships after its first two exchanges; the third finishes it.
	for _, id := range ids {
		doc, ok := n2.node.takeStandby(id)
		if !ok || doc.AttrOr("lastSeq", "") != "2" {
			t.Fatalf("standby copy of %s: %v, %v; want lastSeq 2", id, doc, ok)
		}
	}
}
