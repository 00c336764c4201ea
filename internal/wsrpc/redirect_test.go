package wsrpc

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// redirectServer answers /status/N with status N, a Location of /target
// (none under /bare/N) and a well-formed body; /hops/N redirects with a
// 307 through N more hops before landing on /target. Every request that
// reaches /target is recorded as its method and body, and answered
// <ok/>.
type redirectServer struct {
	*httptest.Server
	mu      sync.Mutex
	reached []string
}

func newRedirectServer(t *testing.T) *redirectServer {
	t.Helper()
	rs := &redirectServer{}
	rs.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		kind, arg, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
		n, _ := strconv.Atoi(arg)
		switch kind {
		case "target":
			rs.mu.Lock()
			rs.reached = append(rs.reached, r.Method+" "+string(body))
			rs.mu.Unlock()
			writeRaw(w, http.StatusOK, "<ok/>")
		case "hops":
			next := "/target"
			if n > 1 {
				next = "/hops/" + strconv.Itoa(n-1)
			}
			w.Header().Set("Location", next)
			w.WriteHeader(http.StatusTemporaryRedirect)
		case "bare":
			w.WriteHeader(n)
			io.WriteString(w, "<moved/>")
		default:
			w.Header().Set("Location", "/target")
			w.WriteHeader(n)
			io.WriteString(w, "<moved/>")
		}
	}))
	t.Cleanup(rs.Close)
	return rs
}

func (rs *redirectServer) takeReached() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	got := rs.reached
	rs.reached = nil
	return got
}

// TestTransportRedirectStatuses: a 307 or 308 is followed with its
// method and body, within one attempt of at most 10 requests as
// net/http's default policy has it; every other 3xx, and a 307 without
// a Location, fails the call with its status, a 300 with a well-formed
// body included, and nothing reaches the Location.
func TestTransportRedirectStatuses(t *testing.T) {
	rs := newRedirectServer(t)
	cases := []struct {
		path   string
		status int // 0 when the call succeeds
	}{
		{"/status/307", 0},
		{"/status/308", 0},
		{"/hops/9", 0}, // ten requests
		{"/status/300", 300},
		{"/status/301", 301},
		{"/status/302", 302},
		{"/status/303", 303},
		{"/bare/307", 307},
		{"/hops/10", 307}, // an eleventh request is not sent
	}
	for _, c := range cases {
		for _, method := range []string{http.MethodPost, http.MethodGet} {
			body := ""
			if method == http.MethodPost {
				body = "<req/>"
			}
			tr := &Transport{Retry: fastRetry()}
			got, err := tr.CallBody(bg, method, rs.URL, c.path, "", body, true, nil)
			reached := rs.takeReached()
			if c.status == 0 {
				if err != nil || got != "<ok/>" {
					t.Errorf("%s %s: got %q, %v; want <ok/>", method, c.path, got, err)
				}
				if want := method + " " + body; len(reached) != 1 || reached[0] != want {
					t.Errorf("%s %s: the Location saw %q, want [%q]", method, c.path, reached, want)
				}
				continue
			}
			var te *Error
			if !errors.As(err, &te) || te.Status != c.status || te.Temporary {
				t.Errorf("%s %s: got %q, %v; want a permanent *Error with status %d", method, c.path, got, err, c.status)
			}
			if len(reached) != 0 {
				t.Errorf("%s %s: the Location saw %q", method, c.path, reached)
			}
		}
	}
	// The limit is net/http's: its client follows nine hops and stops at
	// the tenth redirect.
	for _, c := range []struct {
		path string
		ok   bool
	}{{"/hops/9", true}, {"/hops/10", false}} {
		resp, err := http.Post(rs.URL+c.path, ContentType, strings.NewReader("<req/>"))
		if err == nil {
			resp.Body.Close()
		}
		if (err == nil) != c.ok {
			t.Errorf("net/http's client on %s: %v, want success %v", c.path, err, c.ok)
		}
		rs.takeReached()
	}
}

// TestTransportClientTimeoutCapsAttempt: the client's Timeout bounds an
// attempt when RequestTimeout is off, and when it is the shorter of the
// two.
func TestTransportClientTimeoutCapsAttempt(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.ReadAll(r.Body) // the server notices a closed connection once the body is read
		<-r.Context().Done()
	}))
	defer srv.Close()
	for _, rt := range []time.Duration{-1, time.Minute} {
		tr := &Transport{RequestTimeout: rt, HTTP: &http.Client{Timeout: 50 * time.Millisecond}}
		start := time.Now()
		_, err := tr.CallBody(bg, http.MethodPost, srv.URL, "/x", "", "<req/>", false, nil)
		if !errors.Is(err, context.DeadlineExceeded) || !IsTemporary(err) {
			t.Errorf("RequestTimeout %v: got %v, want a temporary deadline failure", rt, err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("RequestTimeout %v: the attempt took %v", rt, d)
		}
	}
}

// stubTransport answers every request with resp and err.
type stubTransport struct {
	resp *http.Response
	err  error
}

func (s stubTransport) RoundTrip(*http.Request) (*http.Response, error) { return s.resp, s.err }

// TestTransportRoundTripperGuards: a reply with a nil Body reads as an
// empty body, and a nil reply with a nil error fails the call, as
// http.Client has them.
func TestTransportRoundTripperGuards(t *testing.T) {
	call := func(rt http.RoundTripper) error {
		tr := &Transport{HTTP: &http.Client{Transport: rt}}
		_, err := tr.CallBody(bg, http.MethodPost, "http://stub.invalid", "/x", "", "<req/>", false, nil)
		return err
	}
	var te *Error
	err := call(stubTransport{resp: &http.Response{StatusCode: http.StatusServiceUnavailable, Status: "503 Service Unavailable"}})
	if !errors.As(err, &te) || te.Status != http.StatusServiceUnavailable || !te.Temporary {
		t.Errorf("nil body on a 503: %v, want a temporary *Error with status 503", err)
	}
	err = call(stubTransport{resp: &http.Response{StatusCode: http.StatusOK}})
	if !errors.As(err, &te) || te.Code != "malformed-response" {
		t.Errorf("nil body on a 200: %v, want an empty, malformed reply", err)
	}
	if err := call(stubTransport{}); !errors.As(err, &te) || te.Status != 0 || !strings.Contains(err.Error(), "nil *Response") {
		t.Errorf("nil reply: %v, want a transport failure naming it", err)
	}
}

// TestTransportRefusesClientHooks: a client with a cookie jar or a
// redirect policy fails every call with an error naming them, and no
// request is sent.
func TestTransportRefusesClientHooks(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeRaw(w, http.StatusOK, "<ok/>")
	}))
	defer srv.Close()
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, client := range map[string]*http.Client{
		"Jar":           {Jar: jar},
		"CheckRedirect": {CheckRedirect: func(*http.Request, []*http.Request) error { return nil }},
	} {
		tr := &Transport{HTTP: client}
		_, err := tr.CallBody(bg, http.MethodPost, srv.URL, "/x", "", "<req/>", true, nil)
		if !errors.Is(err, errClientHooks) || IsTemporary(err) {
			t.Errorf("a client with a %s: got %v, want the refusal", name, err)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("the server saw %d requests", n)
	}
}
