package cluster

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"trustvo/internal/wsrpc"
	"trustvo/internal/xmldom"
)

// bytesPerRun returns the bytes f allocates, averaged over runs.
func bytesPerRun(runs int, f func()) uint64 {
	f() // warm pools and lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestRoutedExchangeParsesOnce: the router reads and parses an exchange
// body to route it, and the service serves the envelope it parsed. A
// routed exchange (a replay of a live session's first message) then
// allocates what the service alone allocates for it, within a quarter of
// one parse of its body. Measured: 7816 bytes either way. Reading and
// parsing the body a second time put the routed exchange 1564 bytes
// above the service's 8879, against a 960-byte parse.
func TestRoutedExchangeParsesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c, n1 := liveSession(t)
	defer c.shutdown()
	body := firstEnvelope(t, c, "ReplayMember", "ship-1")
	serve := func(h http.Handler) func() {
		return func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tn/policyExchange", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("replay: %d %s", rec.Code, rec.Body)
			}
		}
	}
	service := http.NewServeMux()
	n1.tn.Register(service)
	const runs = 200
	routed := bytesPerRun(runs, serve(n1.srv.Config.Handler))
	alone := bytesPerRun(runs, serve(service))
	parse := bytesPerRun(runs, func() {
		if _, err := xmldom.ParseString(body); err != nil {
			t.Fatal(err)
		}
	})
	if routed > alone+parse/4 {
		t.Errorf("a routed exchange allocates %d bytes, the service alone %d: more than a quarter of a %d-byte parse apart",
			routed, alone, parse)
	}
}

// FuzzRoutedExchangeMatchesService posts any body, or a GET, to either
// exchange route of a cluster node and of a single TN service. Unless
// the body names a session the router would route, both must answer
// with the same status, Content-Type and body.
func FuzzRoutedExchangeMatchesService(f *testing.F) {
	c := newTestCluster(f, false, 0)
	defer c.shutdown()
	n1 := c.addNode("n1")
	routed := http.NewServeMux()
	n1.node.Register(routed)
	single := http.NewServeMux()
	svc := wsrpc.NewTNService(c.controllerParty())
	svc.Logf = func(string, ...any) {}
	svc.Register(single)

	msg := `<tnMessage type="request" from="m" resource="r" strategy="standard"/>`
	for _, body := range []string{
		`<envelope negotiation="big-1" seq="1"><tnMessage type="fail" from="m"><reason>` + strings.Repeat("a", 64),
		`<envelope negotiation="`,
		`<envelope negotiation="t-1" seq="1">` + msg,
		`<fault code="parse">x</fault>`,
		`<envelope negotiation="s-1" seq="x1">` + msg + `</envelope>`,
		`<envelope seq="-1">` + msg + `</envelope>`,
		`<envelope negotiation="p-1" seq="2"><tnMessage type="credential" from="m"/></envelope>`,
		`<envelope seq="3"><tnMessage type="sequence" from="m"/></envelope>`,
		`<envelope negotiation="e-1" seq="1"/>`,
		`<envelope negotiation=""><other/></envelope>`,
		``,
	} {
		for _, get := range []bool{false, true} {
			f.Add(body, false, get)
			f.Add(body, true, get)
		}
	}
	f.Fuzz(func(t *testing.T, body string, credential, get bool) {
		path, method := "/tn/policyExchange", http.MethodPost
		if credential {
			path = "/tn/credentialExchange"
		}
		if get {
			method = http.MethodGet
		} else if env, err := wsrpc.DecodeEnvelope(body); err == nil && env.ID != "" {
			return // routed by session: the owner's table decides
		}
		answer := func(h http.Handler) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			return rec
		}
		got, want := answer(routed), answer(single)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			got.Body.String() != want.Body.String() {
			t.Fatalf("%s %s %q:\ncluster node   %d %s %s\nsingle service %d %s %s", method, path, body,
				got.Code, got.Header().Get("Content-Type"), got.Body,
				want.Code, want.Header().Get("Content-Type"), want.Body)
		}
	})
}
