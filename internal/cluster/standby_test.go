package cluster

import (
	"io"
	"net/http"
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

// postCluster POSTs a raw body to a cluster route and returns the status
// code.
func postCluster(t *testing.T, base, route, body string) int {
	t.Helper()
	resp, err := http.Post(base+route, "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// postStandby POSTs a raw standby ship body and returns the status code.
func postStandby(t *testing.T, base, body string) int {
	t.Helper()
	return postCluster(t, base, "/cluster/standby", body)
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
	forged := pki.Seal(intruder, pki.LabelStandby, time.Now().Add(time.Hour), doc)
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
	ship := pki.Seal(c.keys, pki.LabelStandby, time.Now().Add(-time.Minute), doc)
	if got := postStandby(t, b.srv.URL, ship.XML()); got != http.StatusGone {
		t.Fatalf("expired ship: got %d, want %d", got, http.StatusGone)
	}
}

// TestSealedLabelsDoNotCross: a standby ship and a session ticket are
// sealed under the same cluster key; each carries its own label, so
// neither is accepted on the other's route.
func TestSealedLabelsDoNotCross(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	c.addNode("a")
	b := c.addNode("b")

	ship := pki.Seal(c.keys, pki.LabelStandby, time.Now().Add(time.Hour),
		xmldom.NewElement("tnSession").SetAttr("id", "cross-1"))
	if got := postCluster(t, b.srv.URL, "/cluster/adopt", ship.XML()); got != http.StatusBadRequest {
		t.Fatalf("standby ship on /cluster/adopt: got %d, want %d", got, http.StatusBadRequest)
	}
	ticket := pki.Seal(c.keys, pki.LabelSession, time.Now().Add(time.Hour),
		xmldom.NewElement("tnSession").SetAttr("id", "cross-2"))
	if got := postStandby(t, b.srv.URL, ticket.XML()); got != http.StatusBadRequest {
		t.Fatalf("session ticket on /cluster/standby: got %d, want %d", got, http.StatusBadRequest)
	}
	if b.tn.HasSession("cross-1") || b.tn.HasSession("cross-2") {
		t.Fatal("a cross-labelled document was adopted")
	}
	if n := b.node.StandbyCount(); n != 0 {
		t.Fatalf("a cross-labelled document entered the standby table (%d entries)", n)
	}
	if got := c.reg.Counter("cluster_adoptions_total", "source", "migration").Value(); got != 0 {
		t.Fatalf("cluster_adoptions_total{migration} = %d, want 0", got)
	}
}

func TestStandbySignedRoundTrip(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	c.addNode("a")
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-3")
	ship, err := b.node.seal(pki.LabelStandby, b.node.standbyTTL(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := postStandby(t, b.srv.URL, ship.XML()); got != http.StatusOK {
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
	ship, err := b.node.seal(pki.LabelStandby, b.node.standbyTTL(), doc)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the stored snapshot after signing: the signature no
	// longer covers what would be adopted.
	tampered := strings.Replace(ship.XML(), "sess-4", "sess-x", 1)
	b.node.putStandby("sess-4", tampered)
	if _, ok := b.node.takeStandby("sess-4"); ok {
		t.Fatal("takeStandby adopted a tampered snapshot")
	}
}

func TestHandleStandbyGetRefusesStale(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	b := c.addNode("b")

	doc := xmldom.NewElement("tnSession").SetAttr("id", "sess-5")
	ship, err := b.node.seal(pki.LabelStandby, b.node.standbyTTL(), doc)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a snapshot far past the table TTL; the GET surrender path
	// must apply the same staleness rule takeStandby does.
	b.node.mu.Lock()
	b.node.standby["sess-5"] = standbyDoc{xml: ship.XML(), at: time.Now().Add(-24 * time.Hour)}
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

// BenchmarkStandbyShip prices one standby ship of a mid-negotiation
// session document, without HTTP: seal and encode it as shipStandby
// does, then parse and open it as the standby POST does.
func BenchmarkStandbyShip(b *testing.B) {
	c := newTestCluster(b, false, 0)
	defer c.shutdown()
	n1 := c.addNode("n1")
	resp, err := http.Post(n1.srv.URL+"/tn/policyExchange", wsrpc.ContentType,
		strings.NewReader(firstEnvelope(b, c, "BenchMember", "bench-1")))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	doc := n1.tn.DrainSessions(nil)["bench-1"]
	if doc == nil {
		b.Fatal("no session state to ship")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ship, err := n1.node.seal(pki.LabelStandby, n1.node.standbyTTL(), doc)
		if err != nil {
			b.Fatal(err)
		}
		root, err := xmldom.ParseString(ship.XML())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n1.node.openSession(root, pki.LabelStandby); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(doc.XML())), "doc-bytes")
}
