package wsrpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trustvo/internal/telemetry"
	"trustvo/internal/xmldom"
)

// Transport is the hardened call path shared by TNClient and
// MemberClient: per-request deadlines, exponential-backoff retries on
// idempotent routes, and a per-endpoint circuit breaker. The zero value
// works (defaults below); a single Transport may be shared by many
// clients — the breaker state is per (base URL, route).
type Transport struct {
	// HTTP supplies the two things a call reads from a client: its
	// Transport, the RoundTripper every request goes through
	// (http.DefaultTransport when nil), and its Timeout, which when
	// positive caps each attempt beside RequestTimeout. Nil means a
	// client with a 30s Timeout. The call path follows 307 and 308
	// redirects itself and keeps no cookies, so a client that sets Jar
	// or CheckRedirect fails every call.
	HTTP *http.Client
	// RequestTimeout bounds each individual attempt (default 10s; set
	// negative to disable).
	RequestTimeout time.Duration
	// Retry controls the backoff loop (zero value = defaults).
	Retry RetryPolicy
	// BreakerThreshold is the consecutive-failure count that trips an
	// endpoint's breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// half-opening for a probe (default 2s).
	BreakerCooldown time.Duration
	// Metrics receives retry/breaker counters (nil disables).
	Metrics *telemetry.Registry

	mu        sync.Mutex
	endpoints map[endpointKey]*endpoint
}

// endpointKey names one endpoint: a base URL without trailing slashes,
// and a route.
type endpointKey struct{ base, route string }

// endpoint is what every call to one endpoint shares: its URL without a
// query, parsed once, and its breaker.
type endpoint struct {
	raw string
	url *url.URL // nil when raw does not parse; err says why
	err error
	br  *breaker
}

// parseURL parses raw as http.NewRequest would.
func parseURL(raw string) (*url.URL, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, err
	}
	if strings.LastIndexByte(u.Host, ':') > strings.LastIndexByte(u.Host, ']') {
		u.Host = strings.TrimSuffix(u.Host, ":") // an empty port, as http.NewRequest drops it
	}
	return u, nil
}

// urlWith returns the endpoint's URL with query ("" or "?…") appended.
// A plain query sets RawQuery on a copy; anything else parses anew.
func (ep *endpoint) urlWith(query string) (*url.URL, error) {
	switch {
	case query == "":
		return ep.url, ep.err
	case ep.err == nil && len(query) > 1 && query[0] == '?' && !strings.ContainsRune(query, '#'):
		u := *ep.url
		u.RawQuery = query[1:]
		return &u, nil
	}
	return parseURL(ep.raw + query)
}

// transportOr returns t, or when t is nil the transport in owned, made
// on first use, so that a client given no Transport keeps its breaker
// state from call to call.
func transportOr(t *Transport, owned *atomic.Pointer[Transport]) *Transport {
	if t != nil {
		return t
	}
	if o := owned.Load(); o != nil {
		return o
	}
	owned.CompareAndSwap(nil, new(Transport))
	return owned.Load()
}

func (t *Transport) httpClient() *http.Client {
	if t.HTTP != nil {
		return t.HTTP
	}
	return defaultHTTP
}

// attemptTimeout returns the deadline of one attempt made through
// client: the smaller of RequestTimeout and the client's Timeout,
// counting only positive values (0 for none).
func (t *Transport) attemptTimeout(client *http.Client) time.Duration {
	d := t.RequestTimeout
	if d == 0 {
		d = 10 * time.Second
	}
	if ct := client.Timeout; ct > 0 && (d <= 0 || ct < d) {
		d = ct
	}
	return max(d, 0)
}

// errClientHooks refuses a client whose Jar or CheckRedirect the call
// path would otherwise ignore.
var errClientHooks = errors.New("the client in Transport.HTTP sets Jar or CheckRedirect, which wsrpc calls do not use")

// endpointFor returns (lazily creating) the endpoint of base and route.
// Base URLs that differ only in trailing slashes share one.
func (t *Transport) endpointFor(base, route string) *endpoint {
	key := endpointKey{strings.TrimRight(base, "/"), route}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.endpoints[key]
	if e == nil {
		if t.endpoints == nil {
			t.endpoints = make(map[endpointKey]*endpoint)
		}
		e = &endpoint{raw: key.base + route, br: newBreaker(t.BreakerThreshold, t.BreakerCooldown, nil)}
		e.url, e.err = parseURL(e.raw)
		t.endpoints[key] = e
	}
	return e
}

// opName names a call in its errors: method and route.
func opName(method, route string) string { return method + " " + route }

func (t *Transport) count(name string, labels ...string) {
	if t.Metrics != nil {
		//lint:allow metricname forwarding helper; every call site passes a literal name
		t.Metrics.Counter(name, labels...).Inc()
	}
}

// CallBody performs one logical request: POST body (or GET when body is
// "") to base+route+query, with retries when idempotent. It is the one
// call path of wsrpc's clients, and sibling packages call it too: the
// cluster layer routes forwarding, standby shipping and replication RPCs
// through it, so every cross-node hop gets the same deadlines, retries
// and breaker as client traffic. Each attempt
// reads its 2xx reply through decode, which is handed a Reader at the
// reply's root start tag (nil reads nothing); the rest of the reply is
// read after it, so a reply that is not well-formed is a retried
// "malformed-response" whatever decode made of it. An error decode
// returns fails the call as it is, unretried. CallBody returns the body
// of the reply decode accepted; every other failure is a *Error.
func (t *Transport) CallBody(ctx context.Context, method, base, route, query, body string, idempotent bool, decode func(*xmldom.Reader) error) (string, error) {
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxpropagate defensive default for nil-ctx callers
	}
	if c := t.HTTP; c != nil && (c.Jar != nil || c.CheckRedirect != nil) {
		return "", &Error{Op: opName(method, route), Err: errClientHooks}
	}
	ep := t.endpointFor(base, route)
	u, uerr := ep.urlWith(query)
	br := ep.br
	attempts := 1
	if idempotent {
		attempts = t.Retry.attempts()
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			t.count("wsrpc_client_retries_total", "route", route)
			hint := time.Duration(0)
			if te, ok := lastErr.(*Error); ok {
				hint = te.RetryAfter
			}
			if err := sleepCtx(ctx, t.Retry.delay(attempt-1, hint)); err != nil {
				return "", &Error{Op: opName(method, route), Err: err}
			}
		}
		if !br.allow() {
			t.count("wsrpc_client_breaker_rejected_total", "route", route)
			lastErr = &Error{Op: opName(method, route), Code: "breaker-open", Temporary: true, Err: ErrCircuitOpen}
			continue // the backoff may outlast the cooldown
		}
		if uerr != nil {
			return "", &Error{Op: opName(method, route), Err: uerr}
		}
		raw, derr, err := t.once(ctx, method, u, route, body, decode)
		if err == nil {
			// A reply that decode refused still came from a live server.
			br.success()
			return raw, derr
		}
		lastErr = err
		if ctx.Err() != nil {
			// the caller gave up: the attempt proves nothing either way
			br.abandon()
			return "", err
		}
		te, _ := err.(*Error)
		if te != nil && te.Temporary {
			if br.failure() {
				t.count("wsrpc_client_breaker_tripped_total", "route", route)
			}
		} else {
			// the server answered with a definitive protocol response:
			// the endpoint is alive even though the call failed
			br.success()
		}
		if te == nil || !te.Temporary {
			return "", err
		}
	}
	t.count("wsrpc_client_gaveup_total", "route", route)
	return "", lastErr
}

// identity is the Accept-Encoding value of every request: no wsrpc or
// cluster server compresses a reply, and a request without the header
// makes net/http's transport ask for gzip in a header map of its own.
var identity = []string{"identity"}

// postHeader and getHeader are the header maps of every wsrpc and
// cluster request, one per method, shared by all of them and never
// written: net/http's contract forbids a RoundTripper to modify its
// request. An empty User-Agent makes net/http write none.
var (
	postHeader = http.Header{"Content-Type": contentType, "Accept-Encoding": identity, "User-Agent": {""}}
	getHeader  = http.Header{"Accept-Encoding": identity, "User-Agent": {""}}
)

// request builds one request of an attempt, as http.NewRequestWithContext
// would for u and body, with the method's shared header.
func request(ctx context.Context, method string, u *url.URL, body string) *http.Request {
	req := http.Request{
		Method:     method,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     getHeader,
		Host:       u.Host,
	}
	if method == http.MethodPost {
		req.Header = postHeader
		// GetBody lets net/http resend the body on a reused connection
		// found stale, and lets a tracing transport read it.
		if body == "" {
			req.Body = http.NoBody
			req.GetBody = func() (io.ReadCloser, error) { return http.NoBody, nil }
		} else {
			req.ContentLength = int64(len(body))
			req.Body = io.NopCloser(strings.NewReader(body))
			req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(body)), nil }
		}
	}
	return req.WithContext(ctx)
}

// maxRedirects is the number of redirects that fails an attempt, as
// net/http's default policy has it: an attempt sends at most 10 requests.
const maxRedirects = 10

// once performs a single attempt under the attempt's deadline. It sends
// the request through the client's RoundTripper, follows a 307 or 308
// to its Location with the same method and body, and returns the body
// of a 2xx reply and the error decode found in it, or the attempt's
// failure as err. Any other status fails the attempt.
func (t *Transport) once(ctx context.Context, method string, u *url.URL, route, body string, decode func(*xmldom.Reader) error) (raw string, derr, err error) {
	client := t.httpClient()
	reqCtx := ctx
	cancel := func() {}
	if d := t.attemptTimeout(client); d > 0 {
		reqCtx, cancel = context.WithTimeout(ctx, d)
	}
	defer cancel()
	rt := client.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	var resp *http.Response
	for redirects := 0; ; {
		resp, err = rt.RoundTrip(request(reqCtx, method, u, body))
		if err == nil && resp == nil {
			err = fmt.Errorf("the RoundTripper %T returned a nil *Response with a nil error", rt)
		}
		if err != nil {
			// a request that never completed is transient — unless the
			// caller's own context ended it
			return "", nil, &Error{Op: opName(method, route), Temporary: ctx.Err() == nil, Err: err}
		}
		if resp.Body == nil {
			resp.Body = http.NoBody
		}
		if resp.StatusCode != http.StatusTemporaryRedirect && resp.StatusCode != http.StatusPermanentRedirect {
			break
		}
		loc := resp.Header.Get("Location")
		if loc == "" {
			break // fails below, as any other non-2xx reply
		}
		// Read a little of the redirect's body, so that its connection
		// is reused, as net/http's client does.
		io.CopyN(io.Discard, resp.Body, 2<<10)
		resp.Body.Close()
		if redirects++; redirects == maxRedirects {
			return "", nil, &Error{Op: opName(method, route), Status: resp.StatusCode, Err: fmt.Errorf("stopped after %d redirects", maxRedirects)}
		}
		if u, err = u.Parse(loc); err != nil {
			return "", nil, &Error{Op: opName(method, route), Status: resp.StatusCode, Err: err}
		}
	}
	defer resp.Body.Close()
	raw, err = ReadBody(resp.Body, MaxBody)
	if err != nil {
		return "", nil, &Error{Op: opName(method, route), Status: resp.StatusCode, Temporary: ctx.Err() == nil, Err: err}
	}
	success := resp.StatusCode >= 200 && resp.StatusCode < 300
	r := xmldom.NewReader(raw)
	var fault *Fault
	if r.Child(0) {
		if r.Name() == "fault" {
			fault = new(Fault)
			fault.decode(r)
		} else if success && decode != nil {
			derr = decode(r)
		}
	}
	perr := r.Close()
	if !success {
		e := &Error{
			Op:         opName(method, route),
			Status:     resp.StatusCode,
			Temporary:  transientStatus(resp.StatusCode),
			RetryAfter: parseRetryAfter(resp.Header),
		}
		if perr == nil && fault != nil {
			e.Code = fault.Code
			e.Err = fault
		} else {
			e.Err = fmt.Errorf("server returned %s", resp.Status)
		}
		return "", nil, e
	}
	if perr != nil {
		// truncated or garbled body on a 2xx: the reply was lost in
		// transit — safe to retry on idempotent routes
		return "", nil, &Error{Op: opName(method, route), Status: resp.StatusCode, Code: "malformed-response", Temporary: true, Err: perr}
	}
	if fault != nil {
		// defensive: a fault served with a 2xx status
		return "", nil, &Error{Op: opName(method, route), Status: resp.StatusCode, Code: fault.Code, Err: fault}
	}
	return raw, derr, nil
}
