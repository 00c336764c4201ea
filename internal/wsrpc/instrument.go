package wsrpc

import (
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trustvo/internal/telemetry"
)

// statusWriter captures the response status code for per-route metrics.
// It forwards WriteString, so a string response reaches the connection
// without a []byte copy. Instrumented handlers take one from
// statusWriters and put it back when they return.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) WriteString(s string) (int, error) {
	return io.WriteString(w.ResponseWriter, s)
}

var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

// meter holds one route's HTTP metrics: request count by status code,
// request latency, and the global in-flight gauge.
type meter struct {
	reg      *telemetry.Registry
	route    string
	inFlight *telemetry.Gauge
	latency  *telemetry.Histogram
	// ok is the route's code="200" counter, resolved by the first
	// request that counts in it, so that a route serves most requests
	// without a series lookup and /metrics lists only series counted in.
	ok atomic.Pointer[telemetry.Counter]
}

// newMeter resolves route's metrics in reg; nil when reg is nil.
func newMeter(reg *telemetry.Registry, route string) *meter {
	if reg == nil {
		return nil
	}
	return &meter{
		reg:      reg,
		route:    route,
		inFlight: reg.Gauge("http_requests_in_flight"),
		latency:  reg.LatencyHistogram("http_request_seconds", "route", route),
	}
}

// serve runs h under m's accounting; a nil m runs h alone. A request
// whose handler panics counts as a 500, and the panic goes on to
// net/http.
func (m *meter) serve(w http.ResponseWriter, r *http.Request, h http.HandlerFunc) {
	if m == nil {
		h(w, r)
		return
	}
	start := time.Now()
	m.inFlight.Inc()
	sw := statusWriters.Get().(*statusWriter)
	sw.ResponseWriter, sw.code = w, http.StatusOK
	returned := false
	defer func() {
		m.inFlight.Dec()
		m.latency.ObserveSince(start)
		if !returned {
			m.counter(http.StatusInternalServerError).Inc()
			return
		}
		m.counter(sw.code).Inc()
		sw.ResponseWriter = nil
		statusWriters.Put(sw)
	}()
	h(sw, r)
	returned = true
}

// counter returns the route's request counter for status code.
func (m *meter) counter(code int) *telemetry.Counter {
	if code != http.StatusOK {
		return m.reg.Counter("http_requests_total", "route", m.route, "code", strconv.Itoa(code))
	}
	c := m.ok.Load()
	if c == nil {
		c = m.reg.Counter("http_requests_total", "route", m.route, "code", "200")
		m.ok.Store(c)
	}
	return c
}

// instrument wraps a handler with the service's HTTP metrics (meter).
// With no registry the handler is returned untouched — the
// uninstrumented service serves at full speed.
func instrument(reg *telemetry.Registry, route string, h http.HandlerFunc) http.HandlerFunc {
	m := newMeter(reg, route)
	if m == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) { m.serve(w, r, h) }
}

// instrument applies the service's registry to one route.
func (s *TNService) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return instrument(s.Metrics, route, h)
}

// handleHealthz answers liveness probes.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// logf reports operational events (session eviction under pressure);
// defaults to the standard logger so evictions are never silent.
func (s *TNService) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func (k phaseKind) String() string {
	if k == policyPhase {
		return "policy"
	}
	return "credential"
}
