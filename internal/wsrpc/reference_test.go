package wsrpc

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/xmldom"
)

// The builders below assemble the wsrpc documents node by node, as the
// service did before it wrote them through xmldom.Writer. Tests edit
// these trees to forge request bodies, and TestDocumentsMatchReference
// checks the encoded documents against them byte for byte.

func envelope(negID string, m *negotiation.Message) *xmldom.Node {
	return envelopeSeq(negID, 0, m)
}

func envelopeSeq(negID string, seq int64, m *negotiation.Message) *xmldom.Node {
	env := xmldom.NewElement("envelope").SetAttr("negotiation", negID)
	if seq > 0 {
		env.SetAttr("seq", strconv.FormatInt(seq, 10))
	}
	env.AppendChild(m.DOM())
	return env
}

func refStatus(id string, done bool, out *negotiation.Outcome) *xmldom.Node {
	n := xmldom.NewElement("status").
		SetAttr("negotiation", id).
		SetAttr("done", boolStr(done))
	if out != nil {
		n.SetAttr("succeeded", boolStr(out.Succeeded))
		if out.Reason != "" {
			n.SetAttr("reason", out.Reason)
		}
	}
	return n
}

func refFault(code, detail string) *xmldom.Node {
	n := xmldom.NewElement("fault").SetAttr("code", code)
	n.AppendChild(xmldom.NewText(detail))
	return n
}

func TestDocumentsMatchReference(t *testing.T) {
	msgs := []*negotiation.Message{
		{Type: negotiation.MsgRequest, From: `a&"b"`, Resource: "R<1>", Strategy: negotiation.Suspicious},
		{Type: negotiation.MsgFail, From: "x", Reason: ""},
		{Type: negotiation.MsgSuccess, From: "x", Grant: []byte("g"), Nonce: []byte{0, 1, 2}},
	}
	for _, m := range msgs {
		for _, seq := range []int64{0, 1, 42, 1 << 40} {
			if got, want := envelopeXML("n&1", seq, m), envelopeSeq("n&1", seq, m).XML(); got != want {
				t.Errorf("envelope seq=%d:\n got  %s\n want %s", seq, got, want)
			}
		}
	}
	for _, out := range []*negotiation.Outcome{nil, {Succeeded: true}, {Reason: `no <"cred">`}} {
		for _, done := range []bool{false, true} {
			if got, want := statusXML("id", done, out), refStatus("id", done, out).XML(); got != want {
				t.Errorf("status:\n got  %s\n want %s", got, want)
			}
		}
	}
	for _, detail := range []string{"", "x < y", `"q"`} {
		f := &Fault{Code: "c&", Detail: detail}
		if got, want := f.XML(), refFault(f.Code, f.Detail).XML(); got != want {
			t.Errorf("fault:\n got  %s\n want %s", got, want)
		}
	}
	start := xmldom.NewElement("startNegotiationRequest").SetAttr("strategy", "standard").SetAttr("resource", `R"&`)
	if got := startRequestXML("standard", `R"&`); got != start.XML() {
		t.Errorf("start request:\n got  %s\n want %s", got, start.XML())
	}
	resp := xmldom.NewElement("startNegotiationResponse").SetAttr("negotiation", "abc")
	if got := startResponseXML("abc"); got != resp.XML() {
		t.Errorf("start response:\n got  %s\n want %s", got, resp.XML())
	}
}

// refSuspendDoc and refDoneDoc build a session's <tnSession> document node
// by node, as the service did before it wrote the document through
// xmldom.Writer (caller holds sess.mu), with the session's last use,
// used. The negotiation state comes from SnapshotDOM, which
// internal/negotiation checks against its own reference builder.
func refSuspendDoc(sess *tnSession, id string, used time.Time) *xmldom.Node {
	state, err := sess.endpoint.SnapshotDOM()
	if err != nil {
		return nil
	}
	doc := xmldom.NewElement("tnSession").
		SetAttr("id", id).
		SetAttr("lastSeq", strconv.FormatInt(sess.lastSeq, 10)).
		SetAttr("lastStatus", strconv.Itoa(sess.lastReplyStatus)).
		SetAttr("lastUsed", used.UTC().Format(time.RFC3339Nano))
	doc.AppendChild(state)
	if sess.lastReply != "" {
		lr := xmldom.NewElement("lastReply")
		lr.AppendChild(xmldom.NewText(sess.lastReply))
		doc.AppendChild(lr)
	}
	return doc
}

func refDoneDoc(sess *tnSession, id string, used time.Time) *xmldom.Node {
	doc := xmldom.NewElement("tnSession").
		SetAttr("id", id).
		SetAttr("done", "true").
		SetAttr("lastSeq", strconv.FormatInt(sess.lastSeq, 10)).
		SetAttr("lastStatus", strconv.Itoa(sess.lastReplyStatus)).
		SetAttr("lastUsed", used.UTC().Format(time.RFC3339Nano))
	if out := sess.outcome; out != nil {
		o := xmldom.NewElement("outcome").
			SetAttr("succeeded", boolStr(out.Succeeded)).
			SetAttr("resource", out.Resource)
		if out.Reason != "" {
			o.SetAttr("reason", out.Reason)
		}
		doc.AppendChild(o)
	}
	if sess.lastReply != "" {
		lr := xmldom.NewElement("lastReply")
		lr.AppendChild(xmldom.NewText(sess.lastReply))
		doc.AppendChild(lr)
	}
	return doc
}

// checkLayout requires the bytes and the tree that encode writes to equal
// the reference document.
func checkLayout(t *testing.T, what string, encode func(*xmldom.Writer), ref *xmldom.Node) {
	t.Helper()
	want := ref.XML()
	if got := xmldom.String(encode); got != want {
		t.Errorf("%s:\n got  %s\n want %s", what, got, want)
	}
	if got := xmldom.Tree(encode).XML(); got != want {
		t.Errorf("%s tree:\n got  %s\n want %s", what, got, want)
	}
}

// TestSessionDocumentsMatchReference checks the <tnSession> layouts
// against the reference builders: the live document OnSessionUpdate
// receives after every message, and a finished session's document.
func TestSessionDocumentsMatchReference(t *testing.T) {
	svc, _, req := standaloneTN(t)
	ships := 0
	svc.OnSessionUpdate = func(_ context.Context, id string, encode func(*xmldom.Writer)) error {
		sh := svc.shard(id)
		sh.mu.Lock()
		sess := sh.m[id]
		used := sess.lastUsed
		sh.mu.Unlock()
		checkLayout(t, "live session", encode, refSuspendDoc(sess, id, used)) // the handler holds sess.mu
		ships++
		return nil
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := &TNClient{BaseURL: srv.URL, Party: req}
	if out, err := client.Negotiate(bg, "R"); err != nil || !out.Succeeded {
		t.Fatalf("negotiate: %v %+v", err, out)
	}
	if ships == 0 {
		t.Fatal("no session update was shipped")
	}
	done := 0
	for _, sh := range svc.shardTable() {
		sh.mu.Lock()
		for id, sess := range sh.m {
			sess.mu.Lock()
			used := sess.lastUsed
			encode := func(w *xmldom.Writer) { sess.encodeDone(w, id, used) }
			checkLayout(t, "finished session", encode, refDoneDoc(sess, id, used))
			sess.outcome = &negotiation.Outcome{Resource: `R&"1"`, Reason: "no <cred>"}
			sess.lastReply = ""
			checkLayout(t, "refused session", encode, refDoneDoc(sess, id, used))
			sess.outcome = nil
			checkLayout(t, "session without outcome", encode, refDoneDoc(sess, id, used))
			sess.mu.Unlock()
			done++
		}
		sh.mu.Unlock()
	}
	if done != 1 {
		t.Fatalf("%d finished sessions held, want 1", done)
	}
}
