package wsrpc

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// callServer answers every request with <ok/> after reading its body.
func callServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := ReadBody(r.Body, MaxBody); err != nil {
			writeFault(w, http.StatusBadRequest, "body", err.Error())
			return
		}
		writeRaw(w, http.StatusOK, "<ok/>")
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestCallAllocations guards the call path: one POST through CallBody
// to a loopback server, counting the allocations of both ends, stays at
// or under 77, through a client with no Timeout and through one with a
// Timeout, the cluster's peer client. Building each request from the URL
// string took 87, and sending it through http.Client.Do 82, and 84 with
// a Timeout.
func TestCallAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	srv := callServer(t)
	for _, c := range []struct {
		name   string
		client *http.Client
	}{
		{"no timeout", srv.Client()},
		{"timeout", &http.Client{Timeout: 30 * time.Second, Transport: srv.Client().Transport}},
	} {
		tr := &Transport{HTTP: c.client}
		call := func() {
			if _, err := tr.CallBody(context.Background(), http.MethodPost, srv.URL, "/tn/exchange", "", "<tnEnvelope/>", true, nil); err != nil {
				t.Fatal(err)
			}
		}
		call() // open the connection
		if allocs := testing.AllocsPerRun(400, call); allocs > 77 {
			t.Errorf("%s: one POST through CallBody allocates %.1f times, want at most 77", c.name, allocs)
		}
	}
}

// TestMintSessionIDAllocations guards the id every session start mints:
// encoded on the stack, it allocates only the id. hex.EncodeToString
// took 2.
func TestMintSessionIDAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	s := &TNService{}
	mint := func() {
		if id, err := s.mintSessionID(); err != nil || len(id) != 24 {
			t.Fatalf("minted %q, %v", id, err)
		}
	}
	if allocs := testing.AllocsPerRun(400, mint); allocs > 1 {
		t.Errorf("minting a session id allocates %.1f times, want at most 1", allocs)
	}
}

// TestConcurrentCallsShareHeaders runs POSTs and GETs, with and without
// a query, from several goroutines at once: under -race it finds any
// write to the header maps every request shares, and each request must
// reach the server with its own method, query and body.
func TestConcurrentCallsShareHeaders(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := ReadBody(r.Body, MaxBody)
		if err != nil || r.Header.Get("User-Agent") != "" || r.Header.Get("Accept-Encoding") != "identity" {
			writeFault(w, http.StatusBadRequest, "request", "bad request")
			return
		}
		mu.Lock()
		seen[r.Method+" "+r.URL.RequestURI()+" "+body]++
		mu.Unlock()
		writeRaw(w, http.StatusOK, "<ok/>")
	}))
	defer srv.Close()
	tr := &Transport{HTTP: srv.Client()}
	const workers, calls = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				method, query, body := http.MethodPost, "", "<req/>"
				switch i % 3 {
				case 1:
					method, body = http.MethodGet, ""
				case 2:
					query = "?negotiation=n" + strings.Repeat("x", g)
				}
				if _, err := tr.CallBody(context.Background(), method, srv.URL, "/r", query, body, true, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for key, n := range seen {
		total += n
		if strings.HasPrefix(key, "GET") && !strings.HasSuffix(key, "/r ") {
			t.Errorf("GET arrived as %q", key)
		}
	}
	if total != workers*calls {
		t.Fatalf("server saw %d requests, want %d: %v", total, workers*calls, seen)
	}
	if len(postHeader) != 3 || len(getHeader) != 2 || postHeader.Get("Content-Type") != ContentType {
		t.Fatalf("shared headers written through: %v, %v", postHeader, getHeader)
	}
}
