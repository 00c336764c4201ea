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
// cluster key and opened as received — expiry before the MAC — at POST
// ingress, at local takeStandby, and at remote fetchStandby.

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
	bare := xmldom.String(func(w *xmldom.Writer) {
		pki.EncodeSealed(w, pki.LabelStandby, time.Now().Add(time.Hour), doc.Encode, nil)
	})
	if got := postStandby(t, b.srv.URL, bare); got != http.StatusBadRequest {
		t.Fatalf("unsigned ship: got %d, want %d", got, http.StatusBadRequest)
	}

	// Signed by a key the cluster does not hold: signature rejection.
	intruder := pki.MustGenerateKeyPair()
	forged := pki.Seal(intruder, pki.LabelStandby, time.Now().Add(time.Hour), doc.Encode)
	if got := postStandby(t, b.srv.URL, forged); got != http.StatusForbidden {
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
	if got := postStandby(t, b.srv.URL, ship); got != http.StatusGone {
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
	if got := postStandby(t, b.srv.URL, resume); got != http.StatusBadRequest {
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
	adopted, _, ok := b.node.takeStandby("sess-3")
	if !ok {
		t.Fatal("takeStandby refused a legitimately signed ship")
	}
	if adopted != doc.XML() {
		t.Fatalf("takeStandby returned wrong doc: %s", adopted)
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
	if _, _, ok := b.node.takeStandby("sess-4"); ok {
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
// form take at most 3 allocations, the HTTP call aside: the wire string,
// and ReshipSessions' list of sessions and encoder, which hand the hook
// the encoder the exchange handler would. Signing with Ed25519 over an
// exact-size copy of the signed bytes took 6.
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
	if allocs > 3 {
		t.Errorf("one ship allocates %.1f times, want at most 3", allocs)
	}
}

// TestMintOwnedIDAllocations guards session-id minting on a three-node
// ring, about three draws an id: each draw is encoded on the stack and
// looked up without a heap string, so only the id returned allocates.
// Encoding every draw to a heap string took 7 an id on this ring.
func TestMintOwnedIDAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	ring := NewRing(0)
	for _, name := range []string{"n1", "n2", "n3"} {
		ring.Add(name)
	}
	n := &Node{cfg: Config{Name: "n1"}, ring: ring}
	mint := func() {
		id, err := n.mintOwnedID()
		if err != nil || len(id) != 24 || ring.Owner(id) != "n1" {
			t.Fatalf("minted %q, %v: want an id n1 owns", id, err)
		}
	}
	if allocs := testing.AllocsPerRun(400, mint); allocs > 1 {
		t.Errorf("minting an owned id allocates %.1f times, want at most 1", allocs)
	}
}

// BenchmarkStandbyShip prices one standby ship of a live session after
// its first message, without HTTP: from the encoder the exchange handler
// passes, the session document is sealed and written as ship writes it,
// then opened as the standby POST opens it.
func BenchmarkStandbyShip(b *testing.B) {
	c, n1 := liveSession(b)
	defer c.shutdown()
	var size int
	n1.tn.OnSessionUpdate = func(_ context.Context, _ string, encode func(*xmldom.Writer)) error {
		ship, err := n1.node.seal(encode)
		if err != nil {
			return err
		}
		size = len(ship)
		_, _, _, err = n1.node.shipHead(ship)
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
		doc, _, _, err := b.node.shipHead(d.xml)
		if err != nil {
			t.Fatal(err)
		}
		root, err := xmldom.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		return root
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
	doc, seq, ok := b.node.takeStandby("sess-seq")
	if !ok || seq != 3 {
		t.Fatalf("takeStandby = %s, %d, %v; want lastSeq 3", doc, seq, ok)
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
		doc, seq, ok := n2.node.takeStandby(id)
		if !ok || seq != 2 {
			t.Fatalf("standby copy of %s: %s, %d, %v; want lastSeq 2", id, doc, seq, ok)
		}
	}
}

// malleations spells ship, a sealed session document whose payload
// holds <a x="1" y="2"/> and then <lastReply>hello</lastReply>, in other
// ways: the same document as a parser reads it, or a bent envelope.
func malleations(t *testing.T, ship string) map[string]string {
	t.Helper()
	from := strings.LastIndex(ship, "<signature>") + len("<signature>")
	tag := ship[from:strings.LastIndex(ship, "</signature>")]
	// The last character before the padding carries padding bits in its
	// low bits: flipping one leaves the decoded bytes as they were.
	last := from + len(strings.TrimRight(tag, "=")) - 1
	if !strings.HasSuffix(tag, "=") || last < from {
		t.Fatalf("no padded tag in %s", ship)
	}
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	flipped := ship[:last] + string(alphabet[strings.IndexByte(alphabet, ship[last])^1]) + ship[last+1:]
	cases := map[string]string{
		"whitespace between payload elements": strings.Replace(ship, `<a x="1" y="2"/><lastReply>`, "<a x=\"1\" y=\"2\"/>\n<lastReply>", 1),
		"reordered payload attributes":        strings.Replace(ship, `<a x="1" y="2"/>`, `<a y="2" x="1"/>`, 1),
		"character reference":                 strings.Replace(ship, `>hello<`, `>h&#101;llo<`, 1),
		"comment":                             strings.Replace(ship, `<lastReply>`, `<!--c--><lastReply>`, 1),
		"CDATA":                               strings.Replace(ship, `>hello<`, `><![CDATA[hello]]><`, 1),
		"second payload element":              strings.Replace(ship, `</tnSession><signature>`, `</tnSession><tnSession id="mall-1"/><signature>`, 1),
		"second signature":                    strings.Replace(ship, `</signature></sealed>`, `</signature><signature>`+tag+`</signature></sealed>`, 1),
		"XML declaration":                     `<?xml version="1.0" encoding="UTF-8"?>` + ship,
		"trailing bytes":                      ship + "\n",
		"flipped base64 padding bits":         flipped,
	}
	for name, m := range cases {
		if m == ship {
			t.Fatalf("%s: no malleation", name)
		}
	}
	return cases
}

// TestStandbyIngressRefusesMalleatedShips: the standby POST opens a ship
// as received, so only the bytes that were sealed open. Each other
// spelling of one valid ship gets a 400 or a 403 and enters no table.
// Opening a parse of the ship, re-encoded, accepted the whitespace, the
// reordered attributes, the character reference, the CDATA section, the
// XML declaration, the trailing newline and the flipped padding bits.
func TestStandbyIngressRefusesMalleatedShips(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "mall-1").SetAttr("lastSeq", "2")
	doc.AppendChild(xmldom.NewElement("a").SetAttr("x", "1").SetAttr("y", "2"))
	doc.AppendChild(xmldom.NewElement("lastReply").AppendChild(xmldom.NewText("hello")))
	ship, err := b.node.seal(doc.Encode)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range malleations(t, ship) {
		if got := postStandby(t, b.srv.URL, m); got != http.StatusBadRequest && got != http.StatusForbidden {
			t.Errorf("%s: got %d, want 400 or 403", name, got)
		}
	}
	if n := b.node.StandbyCount(); n != 0 {
		t.Fatalf("malleated ships left %d standby entries", n)
	}
	if got := postStandby(t, b.srv.URL, ship); got != http.StatusOK {
		t.Fatalf("the ship as sealed: got %d, want 200", got)
	}
}

// discard is a ResponseWriter that keeps only the status, for measuring
// a handler alone.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header               { return d.h }
func (d *discard) Write(p []byte) (int, error)       { return len(p), nil }
func (d *discard) WriteString(s string) (int, error) { return len(s), nil }
func (d *discard) WriteHeader(status int)            { d.status = status }

// TestStandbyPostAllocations guards the POST ingress: one standby ship of
// a live session through the mux allocates at most its body plus 1 KiB.
// The body is read into one string and opened where it lies; only the
// payload's root start tag is parsed, for the id and lastSeq that file
// it. Parsing the whole ship and re-encoding its payload to verify an
// Ed25519 signature took 6427 bytes for a 1453-byte ship.
func TestStandbyPostAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, n1 := liveSession(t)
	defer c.shutdown()
	var ship string
	n1.tn.OnSessionUpdate = func(_ context.Context, _ string, encode func(*xmldom.Writer)) error {
		var err error
		ship, err = n1.node.seal(encode)
		return err
	}
	if err := n1.tn.ReshipSessions(bg); err != nil || ship == "" {
		t.Fatalf("ship: %v", err)
	}
	mux := http.NewServeMux()
	n1.node.Register(mux)
	const runs = 200
	reqs := make([]*http.Request, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/cluster/standby", strings.NewReader(ship))
	}
	w := &discard{h: http.Header{}}
	next := 0
	per := bytesPerRun(runs, func() {
		mux.ServeHTTP(w, reqs[next])
		next++
	})
	if w.status != 0 {
		t.Fatalf("standby POST answered %d", w.status)
	}
	if limit := uint64(len(ship)) + 1024; per > limit {
		t.Errorf("a standby POST of a %d-byte ship allocates %d bytes, want at most %d", len(ship), per, limit)
	}
	t.Logf("a standby POST of a %d-byte ship allocates %d bytes", len(ship), per)
}
