package wsrpc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
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
	env.AppendChild(xmldom.Tree(m.Encode))
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

// envelopeOf decodes an envelope tree through the one envelope decoder,
// as (id, seq, message, schema error).
func envelopeOf(root *xmldom.Node) (string, int64, *negotiation.Message, error) {
	r := xmldom.NewNodeReader(root)
	defer r.Close()
	var env Envelope
	r.Child(0)
	env.decode(r)
	return env.ID, env.Seq, env.Message, env.Err
}

// refOpenEnvelopeSeq is the tree-walking envelope decoder Envelope.decode
// replaced, with one fix: a present but empty seq is malformed, as any
// other. refPeek is the cluster router's old look at the same tree. Both
// are the oracle of FuzzDecodeEnvelope.
func refOpenEnvelopeSeq(root *xmldom.Node) (string, int64, *negotiation.Message, error) {
	if root.Name != "envelope" {
		return "", 0, nil, fmt.Errorf("wsrpc: expected <envelope>, got <%s>", root.Name)
	}
	id := root.AttrOr("negotiation", "")
	if id == "" {
		return "", 0, nil, fmt.Errorf("wsrpc: envelope without negotiation id")
	}
	var seq int64
	if raw, ok := root.Attr("seq"); ok {
		var err error
		seq, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || seq <= 0 {
			return "", 0, nil, &Error{
				Op:     "envelope",
				Status: http.StatusBadRequest,
				Code:   "envelope",
				Err:    fmt.Errorf("wsrpc: malformed envelope seq %q", raw),
			}
		}
	}
	tm := root.Child("tnMessage")
	if tm == nil {
		return "", 0, nil, fmt.Errorf("wsrpc: envelope without tnMessage")
	}
	m, err := negotiation.MessageFromDOM(tm)
	if err != nil {
		return "", 0, nil, err
	}
	return id, seq, m, nil
}

func refPeek(root *xmldom.Node) (id, msgType string) {
	if root.Name != "envelope" {
		return "", ""
	}
	id = root.AttrOr("negotiation", "")
	if msg := root.Child("tnMessage"); msg != nil {
		msgType = msg.AttrOr("type", "")
	}
	return id, msgType
}

// FuzzDecodeEnvelope checks DecodeEnvelope against the tree-walking
// decoder it replaced: a body either fails to parse on both sides with
// the same error, or decodes to the same id, seq and message, or fails
// with the same schema error and fault code; the id and message type the
// router routes by match the old look at the tree.
func FuzzDecodeEnvelope(f *testing.F) {
	msg := `<tnMessage type="request" from="m" resource="r" strategy="standard"/>`
	for _, body := range []string{
		`<envelope negotiation="n" seq="1">` + msg + `</envelope>`,
		`<envelope negotiation="n" seq="">` + msg + `</envelope>`,
		`<envelope negotiation="n" seq="x">` + msg + `</envelope>`,
		`<envelope negotiation="n"><x/>` + msg + `<tnMessage type="bogus"/></envelope>`,
		`<envelope negotiation="n"><tnMessage type="bogus"/>` + msg + `</envelope>`,
		`<envelope negotiation="" seq="1">` + msg + `</envelope>`,
		`<envelope negotiation="n" seq="1"/>`,
		`<envelope negotiation="n" seq="1">` + msg,
		`<status negotiation="n"/>`,
		``,
		envelopeXML("n&1", 3, &negotiation.Message{Type: negotiation.MsgSuccess, From: "x", Grant: []byte("g"), Nonce: []byte{0, 1}}),
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		env, err := DecodeEnvelope(body)
		root, perr := xmldom.ParseString(body)
		if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
			t.Fatalf("%q: decode error %v, parse error %v", body, err, perr)
		}
		if err != nil {
			return
		}
		id, seq, m, refErr := refOpenEnvelopeSeq(root)
		if (env.Err == nil) != (refErr == nil) || refErr != nil && (env.Err.Error() != refErr.Error() || faultCode(env.Err) != faultCode(refErr)) {
			t.Fatalf("%q: decoder error %v, reference error %v", body, env.Err, refErr)
		}
		if refErr == nil && (env.ID != id || env.Seq != seq || !reflect.DeepEqual(env.Message, m)) {
			t.Fatalf("%q: decoded %q %d %+v, reference %q %d %+v", body, env.ID, env.Seq, env.Message, id, seq, m)
		}
		if pid, typ := refPeek(root); env.ID != pid || env.Type != typ {
			t.Fatalf("%q: routed by %q %q, reference %q %q", body, env.ID, env.Type, pid, typ)
		}
		tid, tseq, tm, terr := envelopeOf(root)
		if fmt.Sprint(terr) != fmt.Sprint(env.Err) || tid != env.ID && refErr == nil || tseq != env.Seq || !reflect.DeepEqual(tm, env.Message) {
			t.Fatalf("%q: tree decoder %q %d %+v %v, bytes %q %d %+v %v", body, tid, tseq, tm, terr, env.ID, env.Seq, env.Message, env.Err)
		}
	})
}

// faultCode is the fault code the TN service answers a schema error with.
func faultCode(err error) string {
	var werr *Error
	if errors.As(err, &werr) && werr.Code != "" {
		return werr.Code
	}
	return "schema"
}

// refRestoreSession is the tree walk AdoptSessionDoc and restoreSession
// made before restoreSession read <tnSession> through xmldom.Reader: the
// id check AdoptSessionDoc made, then the old restoreSession over the
// parsed document, whose negotiation state restores through
// negotiation.RestoreEndpoint. FuzzRestoreSession diffs the two.
func refRestoreSession(s *TNService, doc *xmldom.Node) (string, *tnSession, error) {
	id := strings.Clone(doc.AttrOr("id", ""))
	if id == "" {
		return "", nil, &Error{
			Op:     "adopt",
			Status: http.StatusBadRequest,
			Code:   "schema",
			Err:    fmt.Errorf("wsrpc: session document without id"),
		}
	}
	if doc.Name != "tnSession" {
		return "", nil, fmt.Errorf("expected <tnSession>, got <%s>", doc.Name)
	}
	sess := &tnSession{lastUsed: time.Now()}
	if doc.AttrOr("done", "") == "true" {
		sess.done.Store(true)
		sess.deactivated.Store(true)
		if o := doc.Child("outcome"); o != nil {
			sess.outcome = verdict(&negotiation.Outcome{
				Succeeded: o.AttrOr("succeeded", "") == "true",
				Resource:  o.AttrOr("resource", ""),
				Reason:    o.AttrOr("reason", ""),
			})
		}
	} else {
		party, err := s.sessionParty()
		if err != nil {
			return "", nil, err
		}
		if sess.endpoint, err = negotiation.RestoreEndpoint(party, doc.Child("negotiationState")); err != nil {
			return "", nil, err
		}
	}
	if raw := doc.AttrOr("lastSeq", ""); raw != "" {
		var err error
		sess.lastSeq, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || sess.lastSeq < 0 {
			s.countBadEnvelope()
			return "", nil, &Error{
				Op:     "resume",
				Status: http.StatusBadRequest,
				Code:   "envelope",
				Err:    fmt.Errorf("wsrpc: malformed lastSeq %q in suspended session", raw),
			}
		}
	}
	if raw := doc.AttrOr("lastStatus", ""); raw != "" {
		var err error
		sess.lastReplyStatus, err = strconv.Atoi(raw)
		if err != nil || sess.lastReplyStatus < 0 {
			s.countBadEnvelope()
			return "", nil, &Error{
				Op:     "resume",
				Status: http.StatusBadRequest,
				Code:   "envelope",
				Err:    fmt.Errorf("wsrpc: malformed lastStatus %q in suspended session", raw),
			}
		}
	}
	if raw := doc.AttrOr("lastUsed", ""); raw != "" {
		used, err := time.Parse(time.RFC3339Nano, raw)
		if err != nil {
			s.countBadEnvelope()
			return "", nil, &Error{
				Op:     "resume",
				Status: http.StatusBadRequest,
				Code:   "envelope",
				Err:    fmt.Errorf("wsrpc: malformed lastUsed %q in suspended session", raw),
			}
		}
		sess.lastUsed = used
	}
	if s.stale(sess, time.Now()) {
		return "", nil, &Error{
			Op:     "resume",
			Status: http.StatusNotFound,
			Code:   "negotiation",
			Err:    fmt.Errorf("wsrpc: negotiation idle since %s has expired", sess.lastUsed.UTC().Format(time.RFC3339)),
		}
	}
	if lr := doc.Child("lastReply"); lr != nil {
		sess.lastReply = strings.Clone(lr.Text())
	}
	return id, sess, nil
}

// sessionSeeds runs one negotiation through a service and returns the
// <tnSession> document of the session after every message, live and
// finished, as the standby ship and the drain write them.
func sessionSeeds(tb testing.TB) []string {
	tb.Helper()
	svc, _, req := standaloneTN(tb)
	var docs []string
	svc.OnSessionUpdate = func(_ context.Context, _ string, encode func(*xmldom.Writer)) error {
		docs = append(docs, xmldom.String(encode))
		return nil
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := &TNClient{BaseURL: srv.URL, Party: req}
	if out, err := client.Negotiate(bg, "R"); err != nil || !out.Succeeded {
		tb.Fatalf("negotiate: %v %+v", err, out)
	}
	for _, encode := range svc.DrainSessions() {
		docs = append(docs, xmldom.String(encode))
	}
	if len(docs) < 2 {
		tb.Fatalf("%d session documents, want live and finished ones", len(docs))
	}
	return docs
}

// FuzzRestoreSession diffs restoreSession, one Reader decode over a
// session document's bytes, against refRestoreSession over its parsed
// tree. Neither may panic; they refuse the same documents, with the same
// fault code; and a session both accept has the same id and last use and
// re-encodes to the same bytes, through encodeSuspended or encodeDone.
func FuzzRestoreSession(f *testing.F) {
	seeds := sessionSeeds(f)
	for _, doc := range seeds {
		f.Add(doc)
	}
	live := seeds[0]
	for _, doc := range []string{
		strings.Replace(live, ` lastSeq="`, ` lastSeq="x`, 1),
		strings.Replace(live, ` lastStatus="`, ` lastStatus="-`, 1),
		strings.Replace(live, ` lastUsed="`, ` lastUsed="2001-01-01T00:00:00Z" x="`, 1),
		strings.Replace(live, ` lastUsed="`, ` lastUsed="x`, 1),
		strings.Replace(live, ` seqPos="0"`, ` seqPos="-1"`, 1),
		strings.Replace(live, ` id="`, ` id="" x="`, 1),
		strings.Replace(live, `<negotiationState`, `<other`, 1),
		`<tnSession id="n" done="true" lastSeq="3" lastStatus="200"><lastReply>r</lastReply><outcome succeeded="true" resource="R"/></tnSession>`,
		`<tnSession id="n"/>`,
		`<other id="n"/>`,
		`<tnSession id="n" done="true">`,
		``,
	} {
		f.Add(doc)
	}
	svc, _, _ := standaloneTN(f)
	f.Fuzz(func(t *testing.T, doc string) {
		id, sess, err := svc.restoreSession(doc)
		root, perr := xmldom.ParseString(doc)
		if perr != nil {
			if err == nil {
				t.Fatalf("restoreSession accepted a document that does not parse: %v", perr)
			}
			return
		}
		refID, ref, refErr := refRestoreSession(svc, root)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("restoreSession error %v, reference %v", err, refErr)
		}
		if err != nil {
			if faultCode(err) != faultCode(refErr) {
				t.Fatalf("restoreSession refused with %q (%v), reference %q (%v)", faultCode(err), err, faultCode(refErr), refErr)
			}
			return
		}
		if id != refID || sess.done.Load() != ref.done.Load() || sess.deactivated.Load() != ref.deactivated.Load() {
			t.Fatalf("restored %q done=%v, reference %q done=%v", id, sess.done.Load(), refID, ref.done.Load())
		}
		if root.AttrOr("lastUsed", "") != "" && !sess.lastUsed.Equal(ref.lastUsed) {
			t.Fatalf("last use %v, reference %v", sess.lastUsed, ref.lastUsed)
		}
		encode := func(s *tnSession) string {
			return xmldom.String(func(w *xmldom.Writer) {
				if s.done.Load() {
					s.encodeDone(w, id, time.Time{})
				} else {
					s.encodeSuspended(w, id, time.Time{})
				}
			})
		}
		if got, want := encode(sess), encode(ref); got != want {
			t.Fatalf("restored session encodes to\n %s\nreference\n %s", got, want)
		}
	})
}
