package wsrpc

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"trustvo/internal/negotiation"
	"trustvo/internal/xmldom"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// countingReader counts the bytes read from R.
type countingReader struct {
	R io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.R.Read(p)
	c.n += n
	return n, err
}

// TestReadBody: a body comes back whole below the limit and cut at it
// above, and no byte past the limit is read; a read error is returned.
func TestReadBody(t *testing.T) {
	for _, c := range []struct{ size, limit int }{
		{0, MaxBody}, {1, MaxBody}, {4095, MaxBody}, {4096, MaxBody}, {4097, MaxBody},
		{100000, MaxBody}, {10, 3}, {5000, 4096}, {10000, 5000}, {3 * MaxBody, MaxBody},
	} {
		body := strings.Repeat("x", c.size)
		r := &countingReader{R: iotest.HalfReader(strings.NewReader(body))}
		got, err := ReadBody(r, c.limit)
		if err != nil {
			t.Fatalf("size %d, limit %d: %v", c.size, c.limit, err)
		}
		if want := body[:min(c.size, c.limit)]; got != want {
			t.Errorf("size %d, limit %d: read %d bytes, want %d", c.size, c.limit, len(got), len(want))
		}
		if r.n > c.limit {
			t.Errorf("size %d, limit %d: %d bytes taken from the reader", c.size, c.limit, r.n)
		}
	}
	if _, err := ReadBody(iotest.TimeoutReader(strings.NewReader("<a/>")), MaxBody); !errors.Is(err, iotest.ErrTimeout) {
		t.Errorf("failing reader: %v, want %v", err, iotest.ErrTimeout)
	}
}

// TestReadBodyAllocations: a body that fits the pooled chunk costs one
// allocation, its string.
func TestReadBodyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	body := strings.Repeat("x", 3000)
	r := strings.NewReader(body)
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(body)
		if s, err := ReadBody(r, MaxBody); err != nil || len(s) != len(body) {
			t.Fatal(len(s), err)
		}
	})
	if allocs > 1 {
		t.Errorf("ReadBody of a %d-byte body allocates %.1f times, want 1", len(body), allocs)
	}
}

// TestExchangeAllocations guards the TN exchange handler with Debugf
// unset: the first message of a session, from the request arriving at
// the mux to the reply written, takes at most 30 allocations (27.1
// measured; 34.1 when the body was read through a growing buffer, the
// debug line's arguments were boxed, and each response took a writer
// wrapper and a status string).
func TestExchangeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	svc, _, req := standaloneTN(t)
	svc.Logf = func(string, ...any) {}
	mux := http.NewServeMux()
	svc.Register(mux)
	first, err := negotiation.NewRequester(req, "R").Start()
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	const runs = 100
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		start, err := xmldom.ParseString(post("/tn/start", startRequestXML("standard", "R")).Body.String())
		if err != nil {
			t.Fatal(err)
		}
		env := envelopeXML(start.AttrOr("negotiation", ""), 1, first)
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/tn/policyExchange", strings.NewReader(env))
		runtime.ReadMemStats(&before)
		mux.ServeHTTP(rec, hr)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("exchange: %d %s", rec.Code, rec.Body)
		}
		total += after.Mallocs - before.Mallocs
	}
	allocs := float64(total) / runs
	if allocs > 30 {
		t.Errorf("the first exchange of a session allocates %.1f times, want at most 30", allocs)
	}
}
