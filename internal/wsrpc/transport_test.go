package wsrpc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"trustvo/internal/telemetry"
	"trustvo/internal/xmldom"
)

// rootName returns a decode that records the name of a reply's root
// element in name.
func rootName(name *string) func(*xmldom.Reader) error {
	return func(r *xmldom.Reader) error {
		*name = r.Name()
		return nil
	}
}

// fastRetry keeps transport tests quick while still exercising the loop.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}
}

// TestRetryOnTransientStatus: two 503s then a success converge through
// the backoff loop, counting the retries.
func TestRetryOnTransientStatus(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			writeFault(w, http.StatusServiceUnavailable, "overloaded", "try later")
			return
		}
		fmt.Fprint(w, "<ok/>")
	}))
	defer srv.Close()
	reg := telemetry.NewRegistry()
	tr := &Transport{Retry: fastRetry(), Metrics: reg}
	var root string
	_, err := tr.CallBody(bg, http.MethodPost, srv.URL, "/x", "", "<req/>", true, rootName(&root))
	if err != nil {
		t.Fatal(err)
	}
	if root != "ok" {
		t.Fatalf("root = %s", root)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server hits = %d, want 3", got)
	}
	if got := reg.Counter("wsrpc_client_retries_total", "route", "/x").Value(); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

// TestNoRetryOnNonIdempotent: a transient failure on a non-idempotent
// route surfaces immediately.
func TestNoRetryOnNonIdempotent(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeFault(w, http.StatusServiceUnavailable, "overloaded", "try later")
	}))
	defer srv.Close()
	tr := &Transport{Retry: fastRetry()}
	_, err := tr.CallBody(bg, http.MethodPost, srv.URL, "/x", "", "<req/>", false, nil)
	if !IsTemporary(err) {
		t.Fatalf("expected temporary error, got %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server hits = %d, want 1 (no retries)", got)
	}
}

// TestNoRetryOnDefinitiveError: a 400-class protocol fault is final even
// on an idempotent route, and unwraps to the typed *Fault.
func TestNoRetryOnDefinitiveError(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeFault(w, http.StatusBadRequest, "bad-envelope", "unparseable")
	}))
	defer srv.Close()
	tr := &Transport{Retry: fastRetry()}
	_, err := tr.CallBody(bg, http.MethodPost, srv.URL, "/x", "", "<req/>", true, nil)
	if IsTemporary(err) {
		t.Fatalf("400 classified as temporary: %v", err)
	}
	var fault *Fault
	if !errors.As(err, &fault) || fault.Code != "bad-envelope" {
		t.Fatalf("fault not surfaced: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server hits = %d, want 1", got)
	}
}

// TestMalformedResponseIsTemporary: a truncated 2xx body means the reply
// was lost in transit — transient, so idempotent routes retry it.
func TestMalformedResponseIsTemporary(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			fmt.Fprint(w, "<ok") // cut mid-tag
			return
		}
		fmt.Fprint(w, "<ok/>")
	}))
	defer srv.Close()
	tr := &Transport{Retry: fastRetry()}
	var root string
	_, err := tr.CallBody(bg, http.MethodPost, srv.URL, "/x", "", "<req/>", true, rootName(&root))
	if err != nil {
		t.Fatal(err)
	}
	if root != "ok" || hits.Load() != 2 {
		t.Fatalf("root=%s hits=%d", root, hits.Load())
	}
}

// TestRetryAfterHintIsCapped: a server advertising a huge Retry-After
// must not stall the client past the policy's MaxDelay per retry.
func TestRetryAfterHintIsCapped(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600")
		writeFault(w, http.StatusServiceUnavailable, "capacity", "full")
	}))
	defer srv.Close()
	tr := &Transport{Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}}
	t0 := time.Now()
	_, err := tr.CallBody(bg, http.MethodPost, srv.URL, "/x", "", "<req/>", true, nil)
	if err == nil {
		t.Fatal("expected failure")
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("Retry-After hint not capped: call took %v", elapsed)
	}
	var te *Error
	if !errors.As(err, &te) || te.RetryAfter != 3600*time.Second {
		t.Fatalf("Retry-After not parsed into the typed error: %v", err)
	}
}

// TestBreakerStateMachine drives the breaker directly with a fake clock:
// threshold failures open it, the cooldown half-opens it for one probe,
// and the probe's outcome closes or re-opens it.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := newBreaker(3, time.Second, clock)
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		if b.failure() {
			t.Fatalf("breaker tripped before threshold at failure %d", i)
		}
	}
	if !b.allow() {
		t.Fatal("closed breaker rejected the threshold call")
	}
	if !b.failure() {
		t.Fatal("threshold failure did not trip the breaker")
	}
	if b.snapshot() != breakerOpen {
		t.Fatalf("state = %s, want open", b.snapshot())
	}
	if b.allow() {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}
	now = now.Add(1100 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open after the cooldown")
	}
	if b.snapshot() != breakerHalfOpen {
		t.Fatalf("state = %s, want half-open", b.snapshot())
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// failed probe: straight back to open
	if !b.failure() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if b.allow() {
		t.Fatal("re-opened breaker admitted a call")
	}
	now = now.Add(1100 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open for the second probe")
	}
	b.success()
	if b.snapshot() != breakerClosed {
		t.Fatalf("state = %s, want closed after successful probe", b.snapshot())
	}
	if !b.allow() {
		t.Fatal("closed breaker rejected a call")
	}
}

// TestBreakerAbandonedProbe: an attempt the caller's own context ended
// records neither success nor failure. A half-open probe goes back to
// open with its cooldown served, so the next call probes again, and a
// closed breaker keeps its failure count.
func TestBreakerAbandonedProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(2, time.Second, func() time.Time { return now })
	b.allow()
	b.failure()
	b.allow()
	b.abandon()
	if b.snapshot() != breakerClosed {
		t.Fatalf("state = %s, want closed", b.snapshot())
	}
	b.allow()
	if !b.failure() {
		t.Fatal("abandoned call reset the failure count: second failure did not trip")
	}
	now = now.Add(1100 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open after the cooldown")
	}
	b.abandon()
	if b.snapshot() != breakerOpen {
		t.Fatalf("state = %s after an abandoned probe, want open", b.snapshot())
	}
	if !b.allow() {
		t.Fatal("next call not admitted as a probe after an abandoned one")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
}

// TestCancelledProbeKeepsBreakerOpen drives the same case end to end: an
// endpoint that accepts connections and never answers trips the breaker;
// after the cooldown, a call whose caller gives up after 5 ms is admitted
// as the probe. It must not close the breaker on the still-hung endpoint.
func TestCancelledProbeKeepsBreakerOpen(t *testing.T) {
	hung := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-hung
	}))
	defer srv.Close()
	defer close(hung)
	tr := &Transport{BreakerThreshold: 1, BreakerCooldown: 30 * time.Millisecond, RequestTimeout: 20 * time.Millisecond}
	br := tr.endpointFor(srv.URL, "/x").br
	if _, err := tr.CallBody(bg, http.MethodPost, srv.URL, "/x", "", "<req/>", false, nil); !IsTemporary(err) {
		t.Fatalf("timed-out call: err = %v, want temporary", err)
	}
	if br.snapshot() != breakerOpen {
		t.Fatalf("state = %s after a timed-out call, want open", br.snapshot())
	}
	time.Sleep(40 * time.Millisecond) // serve the cooldown
	ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
	defer cancel()
	if _, err := tr.CallBody(ctx, http.MethodPost, srv.URL, "/x", "", "<req/>", false, nil); err == nil {
		t.Fatal("call to a hung endpoint succeeded")
	}
	if br.snapshot() != breakerOpen {
		t.Fatalf("state = %s after the caller cancelled the probe, want open", br.snapshot())
	}
}

// errTransport always fails at the connection level.
type errTransport struct{ hits atomic.Int64 }

func (e *errTransport) RoundTrip(*http.Request) (*http.Response, error) {
	e.hits.Add(1)
	return nil, errors.New("connection refused")
}

// TestBreakerTripsOnTransportFailures: consecutive connection failures
// trip the endpoint breaker, and further attempts are rejected without
// touching the network.
func TestBreakerTripsOnTransportFailures(t *testing.T) {
	et := &errTransport{}
	reg := telemetry.NewRegistry()
	tr := &Transport{
		HTTP:             &http.Client{Transport: et},
		Retry:            RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		Metrics:          reg,
	}
	_, err := tr.CallBody(bg, http.MethodPost, "http://unreachable.invalid", "/x", "", "<req/>", true, nil)
	if !IsTemporary(err) {
		t.Fatalf("expected temporary failure, got %v", err)
	}
	if got := et.hits.Load(); got != 2 {
		t.Fatalf("network attempts = %d, want 2 (breaker open afterwards)", got)
	}
	if got := reg.Counter("wsrpc_client_breaker_tripped_total", "route", "/x").Value(); got != 1 {
		t.Fatalf("tripped counter = %d, want 1", got)
	}
	if reg.Counter("wsrpc_client_breaker_rejected_total", "route", "/x").Value() == 0 {
		t.Fatal("no rejected attempts counted while open")
	}
	if reg.Counter("wsrpc_client_gaveup_total", "route", "/x").Value() != 1 {
		t.Fatal("gave-up counter not incremented")
	}
	// a breaker-open failure still reports as temporary and wraps the
	// sentinel, so callers can distinguish it
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("final error does not wrap ErrCircuitOpen: %v", err)
	}
}

// TestWireHeaders pins the headers of every call and reply. A request
// asks for no compression, which no wsrpc or cluster server applies,
// and a POST names its body's type; a reply names its type. The values
// are shared by every header that carries them, so an Add to one
// header must leave them as they are.
func TestWireHeaders(t *testing.T) {
	var got []http.Header
	mux := http.NewServeMux()
	mux.HandleFunc("/raw", func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Header.Clone())
		writeRaw(w, http.StatusOK, "<ok/>")
	})
	mux.HandleFunc("/fault", func(w http.ResponseWriter, r *http.Request) {
		writeFault(w, http.StatusConflict, "c", "d")
	})
	mux.HandleFunc("/add", func(w http.ResponseWriter, r *http.Request) {
		SetContentType(w.Header())
		w.Header().Add("Content-Type", "text/plain")
		w.Write([]byte("<ok/>"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	tr := &Transport{}
	for _, method := range []string{http.MethodPost, http.MethodGet} {
		body := ""
		if method == http.MethodPost {
			body = "<x/>"
		}
		if _, err := tr.CallBody(context.Background(), method, srv.URL, "/raw", "", body, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []string{ContentType, ""} {
		h := got[i]
		if ae := h.Values("Accept-Encoding"); len(ae) != 1 || ae[0] != "identity" {
			t.Errorf("request %d: Accept-Encoding %q, want identity", i, ae)
		}
		if ct := h.Get("Content-Type"); ct != want {
			t.Errorf("request %d: Content-Type %q, want %q", i, ct, want)
		}
	}
	for route, want := range map[string][]string{
		"/raw":   {ContentType},
		"/fault": {ContentType},
		"/add":   {ContentType, "text/plain"},
	} {
		resp, err := http.Get(srv.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Values("Content-Type"); fmt.Sprint(ct) != fmt.Sprint(want) {
			t.Errorf("%s reply: Content-Type %q, want %q", route, ct, want)
		}
	}
	if len(contentType) != 1 || contentType[0] != ContentType || len(identity) != 1 || identity[0] != "identity" {
		t.Fatalf("shared header values written through: %q, %q", contentType, identity)
	}
}

// TestClientOwnsOneTransport: a client given no Transport makes one on
// first use and keeps it, however many goroutines ask at once, so its
// breaker state persists from call to call; a given Transport is used
// as it is.
func TestClientOwnsOneTransport(t *testing.T) {
	tn, mc := &TNClient{}, &MemberClient{}
	got := make(chan [2]*Transport, 8)
	for range cap(got) {
		go func() { got <- [2]*Transport{tn.transport(), mc.transport()} }()
	}
	first := <-got
	for range cap(got) - 1 {
		if p := <-got; p != first || first[0] == nil || first[1] == nil || first[0] == first[1] {
			t.Fatalf("transports %p, want each client's one own %p", p, first)
		}
	}
	given := &Transport{}
	if (&TNClient{Transport: given}).transport() != given || (&MemberClient{Transport: given}).transport() != given {
		t.Fatal("a given Transport was not used")
	}
}
