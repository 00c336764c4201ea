package cluster

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"trustvo/internal/negotiation"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xmldom"
)

// exchange posts one negotiation message for session id to a node and
// returns the controller's reply, failing the test on any other answer.
func exchange(t *testing.T, base, id string, seq int, m *negotiation.Message) *negotiation.Message {
	t.Helper()
	path := "/tn/credentialExchange"
	switch m.Type {
	case negotiation.MsgRequest, negotiation.MsgPolicy, negotiation.MsgContinue:
		path = "/tn/policyExchange"
	}
	env := xmldom.NewElement("envelope").SetAttr("negotiation", id).SetAttr("seq", strconv.Itoa(seq))
	env.AppendChild(m.DOM())
	resp, err := http.Post(base+path, wsrpc.ContentType, strings.NewReader(env.XML()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s message %d: status %d: %s", m.Type, seq, resp.StatusCode, body)
	}
	root, err := xmldom.ParseBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := negotiation.MessageFromDOM(root.Child("tnMessage"))
	if err != nil {
		t.Fatalf("reply to message %d: %v: %s", seq, err, body)
	}
	return reply
}

// TestOwnerPullsOrphanedSession: a session adopted or migrated onto a
// node after the ring moved its id on, and after that node's migration
// pass, is an orphan: its owner holds neither the session nor a standby
// copy. The owner's miss must find it — the holder hands it over — and
// the negotiation continues where it stood.
func TestOwnerPullsOrphanedSession(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n1 := c.addNode("n1")
	tmp := NewRing(0)
	tmp.Add("n1")
	tmp.Add("n2")
	id := ownedID(t, tmp, "orphan", "n2")

	req := negotiation.NewRequester(c.memberParty("OrphanMember"), chaosResource)
	first, err := req.Start()
	if err != nil {
		t.Fatal(err)
	}
	reply := exchange(t, n1.srv.URL, id, 1, first)

	// The ring now assigns id to n2, and no migration pass follows.
	n2 := c.addNode("n2")
	next, err := req.Handle(reply)
	if err != nil {
		t.Fatal(err)
	}
	exchange(t, n2.srv.URL, id, 2, next)
	if n1.tn.HasSession(id) {
		t.Fatal("the former holder still holds the session")
	}
	if !n2.tn.HasSession(id) {
		t.Fatal("the owner did not adopt the orphaned session")
	}
	if got := c.reg.Counter("cluster_adoptions_total", "source", "standby").Value(); got != 1 {
		t.Fatalf("cluster_adoptions_total{standby} = %d, want 1", got)
	}
}

// TestRevivedSuccessorGetsStandby: a standby table lives in memory, so a
// successor that dies and comes back holds no copy of the sessions it
// stood by for. The membership pass after its revival must re-ship them,
// or the owner's death before the session's next message loses it.
func TestRevivedSuccessorGetsStandby(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n1 := c.addNode("n1")
	c.addNode("n2")
	c.addNode("n3")
	id := ""
	for i := 0; i < 4096 && id == ""; i++ {
		cand := "reship-" + strconv.Itoa(i)
		if c.ring.Owner(cand) == "n1" && c.ring.Successor(cand) == "n2" {
			id = cand
		}
	}
	if id == "" {
		t.Fatal("no id owned by n1 with successor n2")
	}

	req := negotiation.NewRequester(c.memberParty("ReshipMember"), chaosResource)
	first, err := req.Start()
	if err != nil {
		t.Fatal(err)
	}
	reply := exchange(t, n1.srv.URL, id, 1, first)
	c.kill("n2")
	c.revive("n2", false)
	c.kill("n1")
	next, err := req.Handle(reply)
	if err != nil {
		t.Fatal(err)
	}
	exchange(t, c.get("n2").srv.URL, id, 2, next)
}
