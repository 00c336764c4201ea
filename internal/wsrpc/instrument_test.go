package wsrpc

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trustvo/internal/telemetry"
)

// TestMetricsEndpointAfterNegotiation drives one full membership
// negotiation through the HTTP service and asserts the /metrics scrape
// reflects it: per-route HTTP series, session lifecycle counters, and
// the negotiation-level series recorded by the controller endpoint.
func TestMetricsEndpointAfterNegotiation(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	var debug []string
	f.tk.TN.Debugf = func(format string, args ...any) {
		debug = append(debug, fmt.Sprintf(format, args...))
	}

	if _, out, err := f.member.Join(bg, "DesignWebPortal"); err != nil || !out.Succeeded {
		t.Fatalf("join: %v %+v", err, out)
	}

	resp, err := http.Get(f.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`http_requests_total{code="200",route="/tn/start"} 1`,
		`http_request_seconds_bucket{route="/tn/start",le="+Inf"} 1`,
		`http_request_seconds_count{route="/tn/start"} 1`,
		`http_requests_total{code="200",route="/vo/apply"} 1`,
		"# TYPE http_requests_in_flight gauge",
		"tn_sessions_created_total 1",
		`tn_sessions_completed_total{result="success"} 1`,
		"tn_sessions_active 0",
		`tn_negotiations_total{result="success",role="controller"} 1`,
		`tn_phase_seconds_count{phase="policy-evaluation",role="controller"} 1`,
		`tn_phase_seconds_count{phase="credential-exchange",role="controller"} 1`,
		`tn_disclosures_received_total{role="controller"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", body)
	}

	// one debug line per negotiation message handled
	if len(debug) == 0 {
		t.Fatal("no debug lines recorded")
	}
	for _, line := range debug {
		if !strings.Contains(line, "session=") || !strings.Contains(line, "type=") ||
			!strings.Contains(line, "dur=") {
			t.Fatalf("debug line missing fields: %q", line)
		}
	}
}

func TestHealthz(t *testing.T) {
	f := newWSFixture(t)
	resp, err := http.Get(f.srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(raw) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, raw)
	}
}

// TestCapacityEvictsIdleLiveSessions exercises the pressure valve: at
// MaxSessions, a live session idle for more than half of MaxSessionAge
// is evicted (with a log line and a counted reason) instead of the new
// negotiation being refused. Fresh sessions — as in TestSessionCapacity
// — still produce a capacity fault.
func TestCapacityEvictsIdleLiveSessions(t *testing.T) {
	f := newWSFixture(t)
	f.tk.TN.MaxSessions = 2
	f.tk.TN.MaxSessionAge = 200 * time.Millisecond
	var logged []string
	f.tk.TN.Logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	tn := &TNClient{BaseURL: f.srv.URL, Party: f.member.Party}
	first, err := tn.Start(bg, "R")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Start(bg, "R"); err != nil {
		t.Fatal(err)
	}
	// past half the session age, but well before expiry
	time.Sleep(120 * time.Millisecond)
	if _, err := tn.Start(bg, "R"); err != nil {
		t.Fatalf("idle live session not evicted: %v", err)
	}
	if got := f.tk.TN.Metrics.Counter("tn_sessions_swept_total", "reason", "evicted").Value(); got != 1 {
		t.Fatalf("evicted counter = %d", got)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "evicted live negotiation "+first) {
		t.Fatalf("eviction log = %q", logged)
	}
	if _, _, _, err := tn.Status(bg, first); err == nil {
		t.Fatal("evicted session still served")
	}
}

// TestInstrumentCountsPanickingRequest: a handler that panics still
// leaves the in-flight gauge where it was and counts its request, as a
// 500; the panic goes on to net/http, which recovers it.
func TestInstrumentCountsPanickingRequest(t *testing.T) {
	reg := telemetry.NewRegistry()
	boom := instrument(reg, "/boom", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("boom")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the handler's panic was swallowed")
			}
		}()
		boom(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/boom", nil))
	}()
	if got := reg.Gauge("http_requests_in_flight").Value(); got != 0 {
		t.Errorf("http_requests_in_flight = %d after a panicking request, want 0", got)
	}
	if got := reg.Counter("http_requests_total", "route", "/boom", "code", "500").Value(); got != 1 {
		t.Errorf(`http_requests_total{code="500"} = %d after a panicking request, want 1`, got)
	}
	if got := reg.Counter("http_requests_total", "route", "/boom", "code", "202").Value(); got != 0 {
		t.Errorf(`http_requests_total{code="202"} = %d, want 0: the request did not complete`, got)
	}
	if got := reg.LatencyHistogram("http_request_seconds", "route", "/boom").Snapshot().Count; got != 1 {
		t.Errorf("http_request_seconds observed %d requests, want 1", got)
	}
}
