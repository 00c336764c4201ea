package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/partydb"
	"trustvo/internal/store"
)

// Tracing from outside the program: spans are recorded only at the
// boundaries the benchmark owns — the client's RoundTripper, a handler
// middleware on every server mux (the cluster nodes' peer transport is
// wrapped the same way), the member party's negotiation.Party.Trace
// hook, a partydb.Reader installed as the TN service's PartyReader, and
// the benchmark's own store puts. Span ids travel between client and
// server in spanHeader, so one join's calls, the handlers serving them
// and the standby ships those handlers make form one tree.
//
// The client's time between calls is split at the events it is bounded
// by: client.decode runs from a response body's EOF to the engine's
// "recv" (response parse and envelope decode), client.engine from "recv"
// to "send" (the requester's negotiation step), and client.encode from
// "send" to the next call (envelope build and serialization).

// spanHeader carries the caller's span to the server as "<trace>.<span>".
const spanHeader = "X-Bench-Span"

// captureJoins is how many traced joins keep their message bodies for
// the layer probes.
const captureJoins = 64

// spanCtx identifies an open span; trace is 0 outside any trace.
type spanCtx struct {
	trace, id uint64
	// client is set on a join's root: the client-side span sequence its
	// calls and engine events advance.
	client *clientTrace
	// capture marks a capturing root: its direct calls keep their bodies.
	capture bool
}

func (c spanCtx) String() string { return fmt.Sprintf("%d.%d", c.trace, c.id) }

func parseSpanCtx(s string) (spanCtx, bool) {
	a, b, ok := strings.Cut(s, ".")
	if !ok {
		return spanCtx{}, false
	}
	trace, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	if err1 != nil || err2 != nil || trace == 0 {
		return spanCtx{}, false
	}
	return spanCtx{trace: trace, id: id}, true
}

type ctxKey struct{}

func withSpan(ctx context.Context, c spanCtx) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

func spanFrom(ctx context.Context) spanCtx {
	c, _ := ctx.Value(ctxKey{}).(spanCtx)
	return c
}

// spanRec is one finished span, as written to the spans file. Times are
// nanoseconds since the tracer was created.
type spanRec struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s spanRec) dur() int64 { return s.End - s.Start }

// tracer keeps every finished span in memory. A nil *tracer records
// nothing and installs no wrappers.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	roots atomic.Uint64
	on    atomic.Bool // roots (and party reloads) are recorded only while set

	mu     sync.Mutex
	spans  []spanRec
	bodies map[uint64][]string // captured trace -> message bodies
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), bodies: make(map[uint64][]string)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// openSpan is a span being timed; nil when its parent is not traced.
type openSpan struct {
	t      *tracer
	rec    spanRec
	client *clientTrace // roots only
	cap    bool
	ended  bool
}

// root opens a new trace while recording is on; the client's first
// span (building the first request) starts with it.
func (t *tracer) root(name string) *openSpan {
	if t == nil || !t.on.Load() {
		return nil
	}
	id := t.ids.Add(1)
	s := &openSpan{
		t:   t,
		rec: spanRec{Trace: id, ID: id, Name: name, Start: t.now()},
		cap: t.roots.Add(1) <= captureJoins,
	}
	s.client = &clientTrace{t: t, root: s.ctx(), span: s}
	s.client.next("client.encode")
	return s
}

// begin opens a child of parent.
func (t *tracer) begin(parent spanCtx, name string) *openSpan {
	if t == nil || parent.trace == 0 {
		return nil
	}
	return &openSpan{t: t, rec: spanRec{Trace: parent.trace, ID: t.ids.Add(1), Parent: parent.id, Name: name, Start: t.now()}}
}

func (s *openSpan) ctx() spanCtx {
	if s == nil {
		return spanCtx{}
	}
	return spanCtx{trace: s.rec.Trace, id: s.rec.ID, client: s.client, capture: s.cap}
}

func (s *openSpan) end() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.client.next("")
	s.rec.End = s.t.now()
	s.t.record(s.rec)
}

// clientTrace is the client-side span sequence of one join: at every
// boundary event the open client span ends and the next one begins.
type clientTrace struct {
	t    *tracer
	root spanCtx
	span *openSpan // the root itself
	mu   sync.Mutex
	open *openSpan
}

// endJoin ends the join's root span where its timed part ends, before
// the untimed checks that follow it.
func endJoin(ctx context.Context) {
	if c := spanFrom(ctx).client; c != nil {
		c.span.end()
	}
}

// next ends the open client span and opens one named name ("" opens
// none, while a call is on the wire).
func (c *clientTrace) next(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t.now()
	if c.open != nil {
		c.open.rec.End = now
		c.t.record(c.open.rec)
		c.open = nil
	}
	if name != "" {
		c.open = &openSpan{t: c.t, rec: spanRec{
			Trace: c.root.trace, ID: c.t.ids.Add(1), Parent: c.root.id, Name: name, Start: now,
		}}
	}
}

// hookParty returns the party a traced join negotiates as: a copy whose
// Trace hook marks the requester engine's entry and exit.
func hookParty(ctx context.Context, p *negotiation.Party) *negotiation.Party {
	c := spanFrom(ctx).client
	if c == nil {
		return p
	}
	hooked := *p
	hooked.Trace = func(direction string, _ *negotiation.Message) {
		if direction == "recv" {
			c.next("client.engine")
		} else {
			c.next("client.encode")
		}
	}
	return &hooked
}

func (t *tracer) record(r spanRec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, r)
}

func (t *tracer) keepBody(trace uint64, body string) {
	if body == "" {
		return // a POST carrying its arguments in the query
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bodies[trace] = append(t.bodies[trace], body)
}

// finished returns the recorded spans and captured bodies.
func (t *tracer) finished() ([]spanRec, map[uint64][]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...), t.bodies
}

// handler wraps a server mux: a request carrying spanHeader is served
// under a span parented to the caller's.
func (t *tracer) handler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseSpanCtx(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		sp := t.begin(parent, "handler "+r.URL.Path)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp.ctx())))
		sp.end()
	})
}

// roundTripper wraps a client transport: a request whose context holds a
// span is timed from send until its response body is read to the end.
func (t *tracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	if t == nil {
		return next
	}
	return &tracingTransport{t: t, next: next}
}

type tracingTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	sp := tt.t.begin(parent, "call "+req.URL.Path)
	if sp == nil {
		return tt.next.RoundTrip(req)
	}
	parent.client.next("")
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, sp.ctx().String())
	if req.ContentLength > 0 {
		sp.rec.Bytes = req.ContentLength
	}
	if parent.capture && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			data, err := io.ReadAll(body)
			if err == nil {
				tt.t.keepBody(parent.trace, string(data))
			}
		}
	}
	resp, err := tt.next.RoundTrip(out)
	if err != nil {
		sp.end()
		return nil, err
	}
	sb := &spanBody{ReadCloser: resp.Body, sp: sp, client: parent.client}
	if parent.capture {
		sb.trace, sb.buf = parent.trace, new(strings.Builder)
	}
	resp.Body = sb
	return resp, nil
}

// spanBody ends its call span when the body is drained or closed; the
// client then decodes the response.
type spanBody struct {
	io.ReadCloser
	sp     *openSpan
	client *clientTrace
	trace  uint64
	buf    *strings.Builder
	once   sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.rec.Bytes += int64(n)
	if b.buf != nil {
		b.buf.Write(p[:n])
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.sp.end()
		b.client.next("client.decode")
		if b.buf != nil {
			b.sp.t.keepBody(b.trace, b.buf.String())
		}
	})
}

// partyReader wraps the TN service's party read path. partydb.LoadParty
// reads the credential list first and the ontology last, so one reload
// spans from the first call to the return of the last.
func (t *tracer) partyReader(r partydb.Reader) partydb.Reader {
	if t == nil {
		return r
	}
	return &timedReader{Reader: r, t: t}
}

type timedReader struct {
	partydb.Reader
	t     *tracer
	start atomic.Int64
}

func (r *timedReader) List(kind string) []*store.Record {
	if kind == partydb.KindCredential {
		r.start.Store(r.t.now())
	}
	return r.Reader.List(kind)
}

func (r *timedReader) Get(kind, key string) (*store.Record, error) {
	rec, err := r.Reader.Get(kind, key)
	if kind == partydb.KindOntology {
		if start := r.start.Swap(0); start != 0 && r.t.on.Load() {
			r.t.record(spanRec{Name: "partydb.reload", Start: start, End: r.t.now()})
		}
	}
	return rec, err
}

// coverage is how much of parent's interval its children cover,
// overlaps counted once.
func coverage(parent spanRec, kids []spanRec) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curS, curE int64
	for i, x := range iv {
		switch {
		case i == 0:
			curS, curE = x[0], x[1]
		case x[0] > curE:
			covered += curE - curS
			curS, curE = x[0], x[1]
		case x[1] > curE:
			curE = x[1]
		}
	}
	if len(iv) > 0 {
		covered += curE - curS
	}
	return covered
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent spanRec, kids []spanRec) int64 {
	return parent.dur() - coverage(parent, kids)
}

// traceStats sums the span tree of a traced window.
type traceStats struct {
	joins  int
	rootNs int64 // join spans
	// attributedNs is the part of join spans that calls and client.engine
	// cover. The client.encode and client.decode spans are left out: they
	// fill every gap between the other spans, so counting them would
	// attribute all of a join by construction.
	attributedNs      int64
	outsideCallsNs    int64 // the part of join spans no call covers
	engineNs, codecNs int64 // client.engine; client.encode + client.decode
	calls             int
	callNs, handlerNs int64
	bytes             int64
	ships             int
	shipNs            int64
	standbys          int
	standbyNs         int64
	reloads           int
	reloadNs          int64
	puts              []time.Duration
	spansTotal        int
}

func analyze(spans []spanRec) traceStats {
	kids := make(map[uint64][]spanRec)
	for _, s := range spans {
		if s.Trace != 0 && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	st := traceStats{spansTotal: len(spans)}
	for _, s := range spans {
		switch {
		case s.Parent == 0 && s.Name == "join":
			st.joins++
			st.rootNs += s.dur()
			var calls, measured []spanRec
			for _, c := range kids[s.ID] {
				switch c.Name {
				case "client.engine":
					st.engineNs += c.dur()
					measured = append(measured, c)
					continue
				case "client.encode", "client.decode":
					st.codecNs += c.dur()
					continue
				}
				calls = append(calls, c)
				st.calls++
				st.callNs += c.dur()
				st.bytes += c.Bytes
				for _, h := range kids[c.ID] {
					st.handlerNs += h.dur()
				}
			}
			st.outsideCallsNs += selfTime(s, calls)
			st.attributedNs += coverage(s, append(measured, calls...))
		case s.Name == "call /cluster/standby":
			st.ships++
			st.shipNs += s.dur()
		case s.Name == "handler /cluster/standby":
			st.standbys++
			st.standbyNs += s.dur()
		case s.Name == "partydb.reload":
			st.reloads++
			st.reloadNs += s.dur()
		case s.Name == "store.put":
			st.puts = append(st.puts, time.Duration(s.dur()))
		}
	}
	return st
}

// writeSpans writes the spans as one JSON array.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans to %s: %w", path, err)
	}
	return f.Close()
}
