package cluster

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

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
	env.AppendChild(xmldom.Tree(m.Encode))
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

// TestOwnerPullsOrphanedSession: a session held on a node after the
// ring moved its id on is an orphan: its owner holds neither the
// session nor a standby copy. The owner's miss must find it — the
// holder hands it over — and the negotiation continues where it stood.
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

	// The ring now assigns id to n2; nothing moves the session.
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

// TestDrainMigratesSessionsWithTickets: a draining node ships every
// session it holds, live or finished, to its owner's standby table. The
// live session continues at the owner where it stood. The finished
// one, whose final reply the client never got, replays that reply at
// the owner; its last step does not run again, so the grant does not
// run twice.
func TestDrainMigratesSessionsWithTickets(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n1 := c.addNode("n1")
	n2 := c.addNode("n2")
	liveID := ownedID(t, c.ring, "drain-live", "n1")
	doneID := ownedID(t, c.ring, "drain-done", "n1")

	live := negotiation.NewRequester(c.memberParty("DrainLive"), chaosResource)
	first, err := live.Start()
	if err != nil {
		t.Fatal(err)
	}
	liveReply := exchange(t, n1.srv.URL, liveID, 1, first)

	// Run the other session to success on n1. Its client never gets the
	// final reply, and keeps the final message to send again.
	done := negotiation.NewRequester(c.memberParty("DrainDone"), chaosResource)
	msg, err := done.Start()
	if err != nil {
		t.Fatal(err)
	}
	seq := 1
	for ; ; seq++ {
		reply := exchange(t, n1.srv.URL, doneID, seq, msg)
		if reply.Type == negotiation.MsgSuccess {
			break
		}
		if msg, err = done.Handle(reply); err != nil {
			t.Fatal(err)
		}
	}
	completed := c.reg.Counter("tn_sessions_completed_total", "result", "success")
	replays := c.reg.Counter("tn_replays_total")
	if got := completed.Value(); got != 1 {
		t.Fatalf("tn_sessions_completed_total{success} = %d before the drain, want 1", got)
	}
	replaysBefore := replays.Value()

	c.ring.Remove("n1")
	moved, err := n1.node.Drain(bg)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}

	next, err := live.Handle(liveReply)
	if err != nil {
		t.Fatal(err)
	}
	exchange(t, n2.srv.URL, liveID, 2, next)

	if again := exchange(t, n2.srv.URL, doneID, seq, msg); again.Type != negotiation.MsgSuccess {
		t.Fatalf("final message re-sent to the owner: reply %s, want success", again.Type)
	}
	if got := completed.Value(); got != 1 {
		t.Fatalf("tn_sessions_completed_total{success} = %d after the re-send, want 1: the last step ran again", got)
	}
	if got := replays.Value(); got != replaysBefore+1 {
		t.Fatalf("tn_replays_total rose by %d, want 1", got-replaysBefore)
	}
	if n1.tn.HasSession(liveID) || n1.tn.HasSession(doneID) {
		t.Fatal("the drained node still holds a session")
	}
	if moved != 2 {
		t.Fatalf("drain moved %d sessions, want 2", moved)
	}
	if got := c.reg.Counter("cluster_migrations_total").Value(); got != 2 {
		t.Fatalf("cluster_migrations_total = %d, want 2", got)
	}
}

// TestStatusAdoptsHeldStandby: after its owner dies, a session's new
// owner holds it as a standby copy. /tn/status there reports the
// session, as its next exchange would find it, instead of calling it
// unknown.
func TestStatusAdoptsHeldStandby(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n1 := c.addNode("n1")
	n2 := c.addNode("n2")
	id := ownedID(t, c.ring, "status", "n1")

	req := negotiation.NewRequester(c.memberParty("StatusMember"), chaosResource)
	first, err := req.Start()
	if err != nil {
		t.Fatal(err)
	}
	exchange(t, n1.srv.URL, id, 1, first)
	c.kill("n1")

	resp, err := http.Get(n2.srv.URL + "/tn/status?negotiation=" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status at the new owner: %d %s", resp.StatusCode, body)
	}
	root, err := xmldom.ParseBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	if root.Name != "status" || root.AttrOr("done", "") != "false" {
		t.Fatalf("status at the new owner: %s", body)
	}
	if !n2.tn.HasSession(id) {
		t.Fatal("the new owner did not adopt the session it held")
	}
}

// TestStandbyFetchEscapesSessionID: an owner missing a session asks its
// peers for that session's copy and no other. The id comes from the
// client's envelope, so it goes into the peer query escaped: "victim#0",
// "%76ictim" and "victim&x" must not fetch and adopt the session
// "victim" a peer holds, and ids holding '&', '%' and '+' must find
// their own copies.
func TestStandbyFetchEscapesSessionID(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n1 := c.addNode("n1")
	two := NewRing(0)
	two.Add("n1")
	two.Add("n2")
	// Every id below is n2's once n2 joins, so n2 asks n1, which hands
	// over the sessions it holds for n2.
	var victim string
	var crafted []string
	for i := 0; i < 4096 && victim == ""; i++ {
		v := "victim-" + strconv.Itoa(i)
		forms := []string{v + "#0", "%76" + v[1:], v + "&x"}
		owned := two.Owner(v) == "n2"
		for _, f := range forms {
			owned = owned && two.Owner(f) == "n2"
		}
		if owned {
			victim, crafted = v, forms
		}
	}
	if victim == "" {
		t.Fatal("no victim id whose crafted forms n2 owns")
	}
	odd := []string{ownedID(t, two, "a&b", "n2"), ownedID(t, two, "50%", "n2"), ownedID(t, two, "x+y", "n2")}

	next := make(map[string]*negotiation.Message)
	for _, id := range append([]string{victim}, odd...) {
		req := negotiation.NewRequester(c.memberParty("EscapeMember"), chaosResource)
		first, err := req.Start()
		if err != nil {
			t.Fatal(err)
		}
		if next[id], err = req.Handle(exchange(t, n1.srv.URL, id, 1, first)); err != nil {
			t.Fatal(err)
		}
	}
	n2 := c.addNode("n2")
	for _, id := range crafted {
		resp, err := http.Post(n2.srv.URL+"/tn/policyExchange", wsrpc.ContentType,
			strings.NewReader(firstEnvelope(t, c, "CraftMember", id)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if n2.tn.HasSession(victim) {
			t.Fatalf("an exchange for %q made n2 adopt session %q", id, victim)
		}
	}
	if !n1.tn.HasSession(victim) {
		t.Fatalf("n1 let go of session %q", victim)
	}
	for _, id := range odd {
		exchange(t, n2.srv.URL, id, 2, next[id])
		if !n2.tn.HasSession(id) || n1.tn.HasSession(id) {
			t.Fatalf("session %q did not move to its owner", id)
		}
	}
}

// TestAdoptRefusesCopyOfAnotherSession: an owner missing session asked
// adopts a standby copy only of asked. Here b's table holds, under
// asked, a validly sealed copy of session other, which b owns — as a
// replayed ship in a GET reply would bring it. The exchange for asked
// must not make its owner a hold other: the copy is refused and counted
// as a schema reject, and asked starts afresh.
func TestAdoptRefusesCopyOfAnotherSession(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	a := c.addNode("a")
	b := c.addNode("b")
	asked := ownedID(t, c.ring, "asked", "a")
	other := ownedID(t, c.ring, "other", "b")

	req := negotiation.NewRequester(c.memberParty("OtherMember"), chaosResource)
	first, err := req.Start()
	if err != nil {
		t.Fatal(err)
	}
	exchange(t, b.srv.URL, other, 1, first) // ships other's state to a
	a.node.mu.Lock()
	ship := a.node.standby[other].xml
	a.node.mu.Unlock()
	if ship == "" {
		t.Fatal("no standby copy of the other session")
	}
	b.node.putStandby(asked, ship, 1)

	schema := c.reg.Counter("cluster_standby_rejects_total", "reason", "schema")
	before := schema.Value()
	resp, err := http.Post(a.srv.URL+"/tn/policyExchange", wsrpc.ContentType,
		strings.NewReader(firstEnvelope(t, c, "AskedMember", asked)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if a.tn.HasSession(other) {
		t.Fatalf("an exchange for %s made its owner adopt session %s (status %d)", asked, other, resp.StatusCode)
	}
	if got := schema.Value() - before; got != 1 {
		t.Errorf("cluster_standby_rejects_total{schema} rose by %d, want 1", got)
	}
	if resp.StatusCode != http.StatusOK || !a.tn.HasSession(asked) {
		t.Errorf("the first message for %s: status %d, held %v; want a fresh session", asked, resp.StatusCode, a.tn.HasSession(asked))
	}
}

// TestAdoptionKeepsIdleClock: a standby copy carries its session's last
// use, and adoption applies the table's idle limit to it. A session idle
// past MaxSessionAge when its owner dies does not come back at the
// successor with a fresh idle period: /tn/status there calls it unknown
// or expired, as its owner would have.
func TestAdoptionKeepsIdleClock(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n1 := c.addNode("n1")
	n2 := c.addNode("n2")
	for _, n := range []*testNode{n1, n2} {
		n.tn.MaxSessionAge = 200 * time.Millisecond
	}
	id := ownedID(t, c.ring, "idle", "n1")

	req := negotiation.NewRequester(c.memberParty("IdleMember"), chaosResource)
	first, err := req.Start()
	if err != nil {
		t.Fatal(err)
	}
	exchange(t, n1.srv.URL, id, 1, first)
	time.Sleep(500 * time.Millisecond)
	c.kill("n1")

	if code, body := status(t, n2.srv.URL, id); code != http.StatusNotFound {
		t.Fatalf("status of a session idle past its limit, at the successor: %d %s; want 404", code, body)
	}
	if n2.tn.HasSession(id) {
		t.Fatal("the successor adopted a session idle past its limit")
	}
}

// TestAdoptionIdleClockCountsShips: a standby copy's idle clock is its
// session's last use when it was shipped. Exchanges ship; a /tn/status
// poll moves only the owner's clock. So a session that status polls
// alone kept alive at its owner, past MaxSessionAge since its last
// exchange, is expired at the successor once the owner dies.
func TestAdoptionIdleClockCountsShips(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n1 := c.addNode("n1")
	n2 := c.addNode("n2")
	for _, n := range []*testNode{n1, n2} {
		n.tn.MaxSessionAge = 200 * time.Millisecond
	}
	id := ownedID(t, c.ring, "polled", "n1")

	req := negotiation.NewRequester(c.memberParty("PolledMember"), chaosResource)
	first, err := req.Start()
	if err != nil {
		t.Fatal(err)
	}
	exchange(t, n1.srv.URL, id, 1, first)
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		if code, body := status(t, n1.srv.URL, id); code != http.StatusOK {
			t.Fatalf("status poll at the owner: %d %s; want 200", code, body)
		}
	}
	c.kill("n1")

	if code, body := status(t, n2.srv.URL, id); code != http.StatusNotFound {
		t.Fatalf("status at the successor of a session polled but not exchanged past its limit: %d %s; want 404", code, body)
	}
	if n2.tn.HasSession(id) {
		t.Fatal("the successor adopted a session whose last ship is past its idle limit")
	}
}

// status answers GET /tn/status for id at base with its code and body.
func status(t *testing.T, base, id string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + "/tn/status?negotiation=" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}
