package wsrpc

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/store"
	"trustvo/internal/xmldom"
)

func TestOpenEnvelopeSeqStrict(t *testing.T) {
	msg := &negotiation.Message{Type: negotiation.MsgRequest, Resource: "R"}

	// Absent seq: pre-sequence client, decodes to 0.
	env := envelope("n1", msg)
	id, seq, _, err := envelopeOf(env)
	if err != nil || id != "n1" || seq != 0 {
		t.Fatalf("plain envelope: id=%q seq=%d err=%v", id, seq, err)
	}

	// Well-formed seq round-trips.
	env = envelopeSeq("n1", 42, msg)
	if _, seq, _, err = envelopeOf(env); err != nil || seq != 42 {
		t.Fatalf("seq envelope: seq=%d err=%v", seq, err)
	}

	// Malformed or non-positive seq must be rejected, not collapsed to 0 —
	// 0 disables the replay cache.
	for _, raw := range []string{"", "abc", "-3", "0", "1e3", "42x", "99999999999999999999"} {
		env = envelope("n1", msg)
		env.SetAttr("seq", raw)
		_, _, _, err := envelopeOf(env)
		if err == nil {
			t.Fatalf("seq=%q accepted", raw)
		}
		var werr *Error
		if !errors.As(err, &werr) || werr.Code != "envelope" {
			t.Fatalf("seq=%q: err = %v, want *Error with code %q", raw, err, "envelope")
		}
	}
}

// TestMalformedSeqFaultAndCounter posts an envelope whose seq attribute
// is garbage: the service must answer a 400 "envelope" fault, bump
// tn_bad_envelope_total, and leave the negotiation usable.
func TestMalformedSeqFaultAndCounter(t *testing.T) {
	svc, _, req := standaloneTN(t)
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	client := &TNClient{BaseURL: srv.URL, Party: req}
	negID, err := client.Start(bg, "R")
	if err != nil {
		t.Fatal(err)
	}
	ep := negotiation.NewRequester(req, "R")
	msg, err := ep.Start()
	if err != nil {
		t.Fatal(err)
	}

	bad := envelopeSeq(negID, 7, msg)
	bad.SetAttr("seq", "forty-two")
	resp, err := http.Post(srv.URL+"/tn/policyExchange", ContentType, strings.NewReader(bad.XML()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	root, err := xmldom.Parse(resp.Body)
	if err != nil || root.Name != "fault" || root.AttrOr("code", "") != "envelope" {
		t.Fatalf("fault body: %v %s", err, root.XML())
	}
	if got := svc.Metrics.Counter("tn_bad_envelope_total").Value(); got != 1 {
		t.Fatalf("tn_bad_envelope_total = %d, want 1", got)
	}

	// The rejected envelope was never applied: the same message with its
	// real sequence number still advances the negotiation.
	good, err := http.Post(srv.URL+"/tn/policyExchange", ContentType, strings.NewReader(envelopeSeq(negID, 7, msg).XML()))
	if err != nil {
		t.Fatal(err)
	}
	defer good.Body.Close()
	if good.StatusCode != http.StatusOK {
		t.Fatalf("valid envelope after rejected one: status = %d", good.StatusCode)
	}
}

// TestEmptySeqRejected: a present but empty seq is malformed like any
// other, not absent. Read as absent, it turned the reply cache off, so
// two deliveries of the same request were both applied and the second
// failed the negotiation.
func TestEmptySeqRejected(t *testing.T) {
	svc, _, req := standaloneTN(t)
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	client := &TNClient{BaseURL: srv.URL, Party: req}
	negID, err := client.Start(bg, "R")
	if err != nil {
		t.Fatal(err)
	}
	msg, err := negotiation.NewRequester(req, "R").Start()
	if err != nil {
		t.Fatal(err)
	}
	empty := envelope(negID, msg)
	empty.SetAttr("seq", "")
	for i := 1; i <= 2; i++ {
		resp, err := http.Post(srv.URL+"/tn/policyExchange", ContentType, strings.NewReader(empty.XML()))
		if err != nil {
			t.Fatal(err)
		}
		root, err := xmldom.Parse(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || root.Name != "fault" || root.AttrOr("code", "") != "envelope" {
			t.Fatalf("delivery %d: status %d, body %v %v; want 400 envelope", i, resp.StatusCode, root, err)
		}
		if got := svc.Metrics.Counter("tn_bad_envelope_total").Value(); got != int64(i) {
			t.Fatalf("tn_bad_envelope_total = %d after %d deliveries", got, i)
		}
	}
	good, err := http.Post(srv.URL+"/tn/policyExchange", ContentType, strings.NewReader(envelopeSeq(negID, 1, msg).XML()))
	if err != nil {
		t.Fatal(err)
	}
	defer good.Body.Close()
	if good.StatusCode != http.StatusOK {
		t.Fatalf("valid envelope after the rejected ones: status = %d", good.StatusCode)
	}
}

// TestResumeDropsCorruptSessionRecord corrupts a suspended session's
// lastSeq on disk: the restarted service must drop (and delete) the
// record, count it, and keep starting up — never restore it with the
// replay cache silently disabled.
func TestResumeDropsCorruptSessionRecord(t *testing.T) {
	svc1, ctl, req := standaloneTN(t)
	mux1 := http.NewServeMux()
	svc1.Register(mux1)
	srv1 := httptest.NewServer(mux1)
	defer srv1.Close()

	gate := &gateTransport{after: 2}
	client := &TNClient{
		BaseURL: srv1.URL, Party: req,
		Transport: &Transport{
			HTTP:  &http.Client{Transport: gate},
			Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		},
	}
	_, err := client.Negotiate(bg, "R")
	var se *SuspendedError
	if !errors.As(err, &se) {
		t.Fatalf("expected SuspendedError, got %v", err)
	}

	db := store.New()
	if n, err := svc1.SuspendSessions(db); err != nil || n != 1 {
		t.Fatalf("suspend: n=%d err=%v", n, err)
	}
	srv1.Close()

	rec := db.List(KindTNSession)[0]
	doc, err := xmldom.ParseString(rec.XML)
	if err != nil {
		t.Fatal(err)
	}
	tampered := doc.Clone()
	tampered.SetAttr("lastSeq", "forty-two")
	if err := db.Put(KindTNSession, rec.Key, tampered); err != nil {
		t.Fatal(err)
	}

	svc2 := NewTNService(ctl)
	n, err := svc2.ResumeSessions(db)
	if err != nil {
		t.Fatalf("resume must not wedge on a corrupt record: %v", err)
	}
	if n != 0 {
		t.Fatalf("resumed %d sessions from corrupt records, want 0", n)
	}
	if left := db.List(KindTNSession); len(left) != 0 {
		t.Fatalf("corrupt session record not deleted: %d left", len(left))
	}
	if got := svc2.Metrics.Counter("tn_bad_envelope_total").Value(); got != 1 {
		t.Fatalf("tn_bad_envelope_total = %d, want 1", got)
	}
}
