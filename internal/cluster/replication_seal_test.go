package cluster

import (
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/partydb"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// clusterKeys is the key pair every test cluster's nodes share, which
// sealFrame seals under.
var clusterKeys = pki.MustGenerateKeyPair()

// sealFrame seals a replication frame's payload, doc, as a leader of a
// test cluster seals it: under clusterKeys, valid for a minute.
func sealFrame(t testing.TB, doc string) string {
	t.Helper()
	return sealDoc(t, clusterKeys, pki.LabelReplicate, time.Now().Add(time.Minute), doc)
}

// sealDoc seals the document doc for label under keys until notAfter.
func sealDoc(t testing.TB, keys *pki.KeyPair, label string, notAfter time.Time, doc string) string {
	t.Helper()
	root, err := xmldom.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return pki.Seal(keys, label, notAfter, root.Encode)
}

// postCluster POSTs body to route at base and returns the status and
// the reply's fault code ("" when the reply is no fault).
func postCluster(t *testing.T, base, route, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+route, wsrpc.ContentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	r := xmldom.NewReader(string(reply))
	code := ""
	if r.Child(0) && r.Name() == "fault" {
		code = r.AttrOr("code", "")
	}
	return resp.StatusCode, code
}

// deliv is the forged snapshot of the tests below: one policy record of
// the controller that discloses the membership resource to anyone.
func deliv(t *testing.T) []byte {
	t.Helper()
	pol := xtnl.MustParsePolicies(chaosResource + " <- DELIV")[0]
	frames, err := store.EncodeEntries([]store.Entry{{Op: store.OpPut, Kind: partydb.KindPolicy, Key: "AircraftCo/forged", Doc: pol.DOM().XML()}})
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestForgedCatchupRefused posts a catch-up that no leader sealed to a
// DB-backed node, whose store holds the controller's policies: the TN
// service reloads them per negotiation (§6.2). The snapshot carries one
// policy disclosing the membership resource on DELIV, and a catch-up
// deletes every record it does not carry, so if the node applied it a
// member holding no credential would be admitted. The POST must be
// refused and leave the store and the verdict as they were.
func TestForgedCatchupRefused(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n := c.addNode("n1")
	if err := partydb.SaveParty(n.db, c.controllerParty()); err != nil {
		t.Fatal(err)
	}
	n.tn.DB = n.db
	stranger := &negotiation.Party{Name: "Stranger", Profile: xtnl.NewProfile("Stranger"),
		Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(c.ca)}
	admitted := func() bool {
		out, err := (&wsrpc.TNClient{BaseURL: n.srv.URL, Party: stranger}).Negotiate(bg, chaosResource)
		return err == nil && out.Succeeded
	}
	if admitted() {
		t.Fatal("setup: a member holding no credential was admitted")
	}
	before := n.db.SnapshotEntries()

	forged := fmt.Sprintf(`<catchup epoch="1" pos="0">%s</catchup>`, base64.StdEncoding.EncodeToString(deliv(t)))
	if status, _ := postCluster(t, n.srv.URL, "/cluster/catchup", forged); status == http.StatusOK {
		t.Errorf("an unsealed catch-up was applied")
	}
	if after := n.db.SnapshotEntries(); !reflect.DeepEqual(after, before) {
		t.Errorf("the store changed: %v, was %v", after, before)
	}
	if admitted() {
		t.Error("a member holding no credential was admitted after the forged catch-up")
	}
}

// TestReplicationRefusesUnsealedFrames posts replication frames no
// leader of the cluster sealed, or sealed too long ago, to a follower:
// each is refused with the standby ingress's status for its reason,
// counted, and applies nothing. A frame sealed under the cluster key
// applies.
func TestReplicationRefusesUnsealedFrames(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n := c.addNode("n1")
	window := fmt.Sprintf(`<replicate epoch="1" from="0">%s</replicate>`, base64.StdEncoding.EncodeToString(deliv(t)))
	snapshot := fmt.Sprintf(`<catchup epoch="1" pos="1">%s</catchup>`, base64.StdEncoding.EncodeToString(deliv(t)))
	other := pki.MustGenerateKeyPair()
	ship := sealDoc(t, clusterKeys, pki.LabelStandby, time.Now().Add(time.Minute), `<tnSession id="s1" lastSeq="1"/>`)
	for _, tc := range []struct {
		name, route, body string
		status            int
		code, reason      string
	}{
		{"unsealed window", "/cluster/replicate", window, http.StatusBadRequest, "schema", "schema"},
		{"unsealed snapshot", "/cluster/catchup", snapshot, http.StatusBadRequest, "schema", "schema"},
		{"another key pair", "/cluster/replicate", sealDoc(t, other, pki.LabelReplicate, time.Now().Add(time.Minute), window), http.StatusForbidden, "replicate-signature", "signature"},
		{"another key pair, snapshot", "/cluster/catchup", sealDoc(t, other, pki.LabelReplicate, time.Now().Add(time.Minute), snapshot), http.StatusForbidden, "replicate-signature", "signature"},
		{"expired", "/cluster/catchup", sealDoc(t, clusterKeys, pki.LabelReplicate, time.Now().Add(-time.Second), snapshot), http.StatusGone, "replicate-expired", "expired"},
		{"a standby ship", "/cluster/replicate", ship, http.StatusBadRequest, "schema", "schema"},
		{"a window sealed as a standby ship", "/cluster/replicate", sealDoc(t, clusterKeys, pki.LabelStandby, time.Now().Add(time.Minute), window), http.StatusBadRequest, "schema", "schema"},
	} {
		rejects := c.reg.Counter("cluster_replicate_rejects_total", "reason", tc.reason)
		before := rejects.Value()
		if status, code := postCluster(t, n.srv.URL, tc.route, tc.body); status != tc.status || code != tc.code {
			t.Errorf("%s: %d %q, want %d %q", tc.name, status, code, tc.status, tc.code)
		}
		if got := rejects.Value(); got != before+1 {
			t.Errorf("%s: cluster_replicate_rejects_total{reason=%q} rose by %d, want 1", tc.name, tc.reason, got-before)
		}
		if keys := n.db.Keys(partydb.KindPolicy); len(keys) != 0 || n.node.Applied() != 0 {
			t.Fatalf("%s: the follower applied it: policies %v, applied %d", tc.name, keys, n.node.Applied())
		}
	}
	if status, code := postCluster(t, n.srv.URL, "/cluster/replicate", sealFrame(t, window)); status != http.StatusOK {
		t.Fatalf("a sealed window: %d %q", status, code)
	}
	if n.node.Applied() != 1 {
		t.Fatalf("a sealed window applied to %d, want 1", n.node.Applied())
	}
}

// TestReplicationNumbersFailClosed sends replication messages whose
// epoch or position is missing or not a decimal count, each way: a
// follower must answer a sealed frame carrying one 400 schema and apply
// nothing, and a leader must fail the push on a status or <replicated>
// reply carrying one, sending no window on a bad status.
func TestReplicationNumbersFailClosed(t *testing.T) {
	// spoil returns doc with attribute attr, written as attr="1" or
	// attr="0" in it, left out or given each malformed value in turn.
	spoil := func(doc, attr string) []string {
		old := ` ` + attr + `="1"`
		if !strings.Contains(doc, old) {
			old = ` ` + attr + `="0"`
		}
		out := []string{strings.Replace(doc, old, "", 1)}
		for _, v := range []string{``, `12abc`, `-1`, `+1`, `1.5`, `0x1`, ` 1`, `18446744073709551616`} {
			out = append(out, strings.Replace(doc, old, ` `+attr+`="`+v+`"`, 1))
		}
		return out
	}
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n := c.addNode("n1")
	frames := base64.StdEncoding.EncodeToString(deliv(t))
	for _, f := range []struct{ route, doc, at string }{
		{"/cluster/replicate", `<replicate count="1" epoch="1" from="0">` + frames + `</replicate>`, "from"},
		{"/cluster/catchup", `<catchup epoch="1" pos="1">` + frames + `</catchup>`, "pos"},
	} {
		for _, attr := range []string{"epoch", f.at} {
			for _, doc := range spoil(f.doc, attr) {
				if status, code := postCluster(t, n.srv.URL, f.route, sealFrame(t, doc)); status != http.StatusBadRequest || code != "schema" {
					t.Errorf("%s: %d %q, want 400 schema", doc, status, code)
				}
			}
		}
	}
	if keys := n.db.Keys(partydb.KindPolicy); len(keys) != 0 || n.node.Applied() != 0 || n.node.Epoch() != 0 {
		t.Fatalf("malformed frames applied: policies %v, applied %d, epoch %d", keys, n.node.Applied(), n.node.Epoch())
	}

	// The leader's side, against a stub follower.
	var status, reply atomic.Value
	var windows atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wsrpc.SetContentType(w.Header())
		if r.URL.Path == "/cluster/status" {
			io.WriteString(w, status.Load().(string))
			return
		}
		windows.Add(1)
		io.WriteString(w, reply.Load().(string))
	}))
	defer stub.Close()
	leader := c.get("n1").node
	leader.SetPeer("stub", stub.URL)
	leader.Promote()
	if err := n.db.PutXML("chaos", "k", chaosDoc(1)); err != nil {
		t.Fatal(err)
	}
	good := `<clusterStatus applied="0" epoch="0" leader="false" lineage="0" node="stub" pos="0"/>`
	acked := `<replicated applied="1" epoch="1" lineage="1"/>`
	for _, attr := range []string{"epoch", "applied", "lineage", "pos"} {
		for _, doc := range spoil(good, attr) {
			status.Store(doc)
			reply.Store(acked)
			windows.Store(0)
			leader.repl.forget("stub")
			if err := leader.replicateTo(bg, "stub", leader.Head()); err == nil || windows.Load() != 0 {
				t.Errorf("status %s: err %v after %d windows, want an error before any", status.Load(), err, windows.Load())
			}
		}
	}
	for _, attr := range []string{"applied", "epoch", "lineage"} {
		for _, doc := range spoil(acked, attr) {
			status.Store(good)
			reply.Store(doc)
			windows.Store(0)
			leader.repl.forget("stub")
			if err := leader.replicateTo(bg, "stub", leader.Head()); err == nil || windows.Load() != 1 {
				t.Errorf("reply %s: err %v after %d windows, want an error after the first", reply.Load(), err, windows.Load())
			}
		}
	}
	status.Store(good)
	reply.Store(acked)
	leader.repl.forget("stub")
	if err := leader.replicateTo(bg, "stub", leader.Head()); err != nil {
		t.Fatalf("well-formed replies: %v", err)
	}
}

// TestShipLastSeqFailsClosed posts standby ships whose session document's
// lastSeq is not a decimal count: each is refused 400 schema and held
// by no one, where a ship without lastSeq, or with a count, is held.
func TestShipLastSeqFailsClosed(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n := c.addNode("n1")
	for _, v := range []string{`=""`, `="12abc"`, `="-1"`, `="1.5"`, `=" 2"`} {
		ship := sealDoc(t, clusterKeys, pki.LabelStandby, time.Now().Add(time.Minute), `<tnSession id="seq-bad" lastSeq`+v+`/>`)
		if status, code := postCluster(t, n.srv.URL, "/cluster/standby", ship); status != http.StatusBadRequest || code != "schema" {
			t.Errorf("lastSeq%s: %d %q, want 400 schema", v, status, code)
		}
	}
	if got := n.node.StandbyCount(); got != 0 {
		t.Fatalf("%d malformed ships held", got)
	}
	for i, doc := range []string{`<tnSession id="seq-none"/>`, `<tnSession id="seq-ok" lastSeq="7"/>`} {
		ship := sealDoc(t, clusterKeys, pki.LabelStandby, time.Now().Add(time.Minute), doc)
		if status, code := postCluster(t, n.srv.URL, "/cluster/standby", ship); status != http.StatusOK {
			t.Errorf("%s: %d %q", doc, status, code)
		}
		if got := n.node.StandbyCount(); got != i+1 {
			t.Errorf("%s: %d ships held, want %d", doc, got, i+1)
		}
	}
}
