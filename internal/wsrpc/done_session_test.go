package wsrpc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/xmldom"
)

// lastExchange records the last exchange request a client sent and the
// response it got back.
type lastExchange struct {
	mu                sync.Mutex
	path              string
	reqBody, respBody []byte
	respStatus        int
}

func (l *lastExchange) RoundTrip(r *http.Request) (*http.Response, error) {
	var body []byte
	if r.Body != nil {
		body, _ = io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || !strings.HasSuffix(r.URL.Path, "Exchange") {
		return resp, err
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(respBody))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.path, l.reqBody, l.respBody, l.respStatus = r.URL.Path, body, respBody, resp.StatusCode
	return resp, nil
}

// TestFinishedSessionDropsEndpoint checks that a session kept for
// DoneRetention after its negotiation ends holds its verdict but neither
// the endpoint nor the disclosed credentials, which would pin the request
// bodies they were parsed from, and that it still answers /tn/status and
// replays its final reply byte for byte.
func TestFinishedSessionDropsEndpoint(t *testing.T) {
	svc, _, req := standaloneTN(t)
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rec := &lastExchange{}
	client := &TNClient{BaseURL: srv.URL, Party: req, Transport: &Transport{HTTP: &http.Client{Transport: rec}}}
	out, err := client.Negotiate(bg, "R")
	if err != nil || !out.Succeeded {
		t.Fatalf("negotiate: %v %+v", err, out)
	}
	env, err := xmldom.ParseBytes(rec.reqBody)
	if err != nil {
		t.Fatal(err)
	}
	negID := env.AttrOr("negotiation", "")

	sess := svc.session(negID)
	if sess == nil {
		t.Fatalf("finished session %q not retained", negID)
	}
	sess.mu.Lock()
	endpoint, outcome := sess.endpoint, sess.outcome
	sess.mu.Unlock()
	if endpoint != nil {
		t.Error("finished session still holds its endpoint")
	}
	if !sess.done.Load() || outcome == nil || !outcome.Succeeded {
		t.Errorf("finished session: done=%v outcome=%+v", sess.done.Load(), outcome)
	}
	if outcome != nil && (len(outcome.Received) > 0 || len(outcome.Sent) > 0) {
		t.Error("finished session keeps the disclosed credentials, which pin the request bodies")
	}

	resp, err := http.Get(srv.URL + "/tn/status?negotiation=" + negID)
	if err != nil {
		t.Fatal(err)
	}
	status, err := xmldom.Parse(resp.Body)
	resp.Body.Close()
	if err != nil || status.AttrOr("done", "") != "true" || status.AttrOr("succeeded", "") != "true" {
		t.Fatalf("status after completion: %v %s", err, status.XML())
	}

	resp, err = http.Post(srv.URL+rec.path, ContentType, bytes.NewReader(rec.reqBody))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != rec.respStatus || !bytes.Equal(replay, rec.respBody) {
		t.Fatalf("replay of the final envelope: %d %s, want %d %s", resp.StatusCode, replay, rec.respStatus, rec.respBody)
	}
	if got := svc.Metrics.Counter("tn_replays_total").Value(); got != 1 {
		t.Fatalf("tn_replays_total = %d, want 1", got)
	}
}

// BenchmarkFinishedSessionRetainedHeap reports the live heap each
// finished session keeps while it is held for DoneRetention: 1000
// negotiations complete against one service and the heap is measured
// with every one of them still in the session table.
func BenchmarkFinishedSessionRetainedHeap(b *testing.B) {
	const sessions = 1000
	for i := 0; i < b.N; i++ {
		svc, _, req := standaloneTN(b)
		svc.DoneRetention = time.Hour
		mux := http.NewServeMux()
		svc.Register(mux)
		srv := httptest.NewServer(mux)
		client := &TNClient{BaseURL: srv.URL, Party: req}
		if _, err := client.Negotiate(bg, "R"); err != nil { // warm connections and pools
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for j := 0; j < sessions; j++ {
			if _, err := client.Negotiate(bg, "R"); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if n := svc.Sessions(); n != sessions+1 {
			b.Fatalf("%d sessions held, want %d", n, sessions+1)
		}
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/sessions, "B/session")
		srv.Close()
	}
}

// TestReleasedFinishedSessionReplays: a finished session released by one
// service and adopted by another still answers /tn/status and replays
// its final reply byte for byte — a client whose last reply was lost in
// a failover must not lose the verdict — without claiming a capacity
// slot on the adopter. The releasing service answers the retry through
// SessionMissing.
func TestReleasedFinishedSessionReplays(t *testing.T) {
	svc, _, req := standaloneTN(t)
	missing := 0
	svc.SessionMissing = func(w http.ResponseWriter, id string) {
		missing++
		writeFault(w, http.StatusServiceUnavailable, "moved", id)
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rec := &lastExchange{}
	client := &TNClient{BaseURL: srv.URL, Party: req, Transport: &Transport{HTTP: &http.Client{Transport: rec}}}
	out, err := client.Negotiate(bg, "R")
	if err != nil || !out.Succeeded {
		t.Fatalf("negotiate: %v %+v", err, out)
	}
	env, err := xmldom.ParseBytes(rec.reqBody)
	if err != nil {
		t.Fatal(err)
	}
	negID := env.AttrOr("negotiation", "")

	encode := svc.ReleaseSession(negID)
	if encode == nil {
		t.Fatal("released finished session: nothing to move")
	}
	doc := xmldom.String(encode)
	if !strings.Contains(doc, ` done="true"`) {
		t.Fatalf("released finished session: %s", doc)
	}
	if svc.HasSession(negID) {
		t.Fatal("released session still in the table")
	}
	resp, err := http.Post(srv.URL+rec.path, ContentType, bytes.NewReader(rec.reqBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || missing != 1 {
		t.Fatalf("retry at the releasing service: status %d, SessionMissing calls %d", resp.StatusCode, missing)
	}

	adopter, _, _ := standaloneTN(t)
	if _, err := adopter.AdoptSessionDoc(doc); err != nil {
		t.Fatal(err)
	}
	if got := adopter.active.Load(); got != 0 {
		t.Fatalf("adopted finished session holds %d capacity slots", got)
	}
	mux2 := http.NewServeMux()
	adopter.Register(mux2)
	srv2 := httptest.NewServer(mux2)
	defer srv2.Close()
	resp, err = http.Get(srv2.URL + "/tn/status?negotiation=" + negID)
	if err != nil {
		t.Fatal(err)
	}
	status, err := xmldom.Parse(resp.Body)
	resp.Body.Close()
	if err != nil || status.AttrOr("done", "") != "true" || status.AttrOr("succeeded", "") != "true" {
		t.Fatalf("status after adoption: %v %s", err, status.XML())
	}
	resp, err = http.Post(srv2.URL+rec.path, ContentType, bytes.NewReader(rec.reqBody))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != rec.respStatus || !bytes.Equal(replay, rec.respBody) {
		t.Fatalf("replay after adoption: %d %s, want %d %s", resp.StatusCode, replay, rec.respStatus, rec.respBody)
	}
}

// TestMovedSessionNotAdvanced: a handler that looked a session up before
// it was drained to another node must not advance the drained copy; it
// answers through SessionMissing, and the client's retry follows the
// session.
func TestMovedSessionNotAdvanced(t *testing.T) {
	svc, _, req := standaloneTN(t)
	missing := 0
	svc.SessionMissing = func(w http.ResponseWriter, id string) {
		missing++
		writeFault(w, http.StatusServiceUnavailable, "moved", id)
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	id, err := svc.newSession()
	if err != nil {
		t.Fatal(err)
	}
	// A handler's lookup returned the session just before the drain took
	// it; put that stale pointer where the handler's lookup finds it.
	sess := svc.session(id)
	svc.DrainSessions()
	svc.shard(id).put(id, sess)

	first, err := negotiation.NewRequester(req, "R").Start()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/tn/policyExchange", ContentType, strings.NewReader(envelopeSeq(id, 1, first).XML()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || missing != 1 {
		t.Fatalf("exchange on a drained session: status %d, SessionMissing calls %d", resp.StatusCode, missing)
	}
	if sess.lastSeq != 0 {
		t.Fatalf("drained session advanced to seq %d", sess.lastSeq)
	}
}
