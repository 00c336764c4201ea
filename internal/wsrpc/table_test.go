package wsrpc

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSweepFreesFinishedSessions: once finished sessions have outlived
// DoneRetention, the next session start that is due a sweep frees every
// one of them, not a share of the table. The map is read directly:
// Sessions() sweeps the whole table itself.
func TestSweepFreesFinishedSessions(t *testing.T) {
	const finished = 32
	svc, srv, parties := concurrentTN(t, 1)
	svc.DoneRetention = 40 * time.Millisecond
	cli := &TNClient{BaseURL: srv.URL, Party: parties[0]}
	for i := 0; i < finished; i++ {
		if out, err := cli.Negotiate(bg, "R"); err != nil || !out.Succeeded {
			t.Fatalf("join %d: %v %+v", i, err, out)
		}
	}
	time.Sleep(60 * time.Millisecond)
	if _, err := cli.Start(bg, "R"); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	held := len(svc.sessions)
	svc.mu.Unlock()
	if held != 1 {
		t.Fatalf("the table holds %d sessions after the start, want 1: finished sessions past retention were left behind", held)
	}
	if got := svc.Metrics.Counter("tn_sessions_swept_total", "reason", "retired").Value(); got != finished {
		t.Fatalf(`tn_sessions_swept_total{reason="retired"} = %d, want %d`, got, finished)
	}
}

// TestCapacityEvictsOldestFirst: at MaxSessions, with every live session
// idle past half of MaxSessionAge, each new start evicts exactly one
// session, the oldest left, with one log line, and the lifecycle
// counters reconcile with the sessions still held.
func TestCapacityEvictsOldestFirst(t *testing.T) {
	const capacity = 4
	svc, srv, parties := concurrentTN(t, 1)
	svc.MaxSessions = capacity
	svc.MaxSessionAge = time.Second
	var logged []string
	svc.Logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	cli := &TNClient{BaseURL: srv.URL, Party: parties[0]}
	var ids []string
	for i := 0; i < capacity; i++ {
		if i > 0 {
			time.Sleep(10 * time.Millisecond)
		}
		id, err := cli.Start(bg, "R")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Past half the session age for all four, well before the first
	// expires.
	time.Sleep(600 * time.Millisecond)
	for i := 0; i < capacity; i++ {
		if _, err := cli.Start(bg, "R"); err != nil {
			t.Fatalf("start %d at capacity: %v", i, err)
		}
		if len(logged) != i+1 || !strings.Contains(logged[i], "evicted live negotiation "+ids[i]+" ") {
			t.Fatalf("after start %d, eviction log = %q, want one line per start naming %v in order", i, logged, ids)
		}
		for j, id := range ids {
			if evicted := j <= i; svc.HasSession(id) == evicted {
				t.Fatalf("after start %d, session %d (%s) held = %v", i, j, id, !evicted)
			}
		}
	}
	reg := svc.Metrics
	created := reg.Counter("tn_sessions_created_total").Value()
	completed := reg.Counter("tn_sessions_completed_total", "result", "success").Value() +
		reg.Counter("tn_sessions_completed_total", "result", "failure").Value()
	expired := reg.Counter("tn_sessions_swept_total", "reason", "expired").Value()
	evicted := reg.Counter("tn_sessions_swept_total", "reason", "evicted").Value()
	active := reg.Gauge("tn_sessions_active").Value()
	if created != 2*capacity || evicted != capacity || active != capacity || created != completed+expired+evicted+active {
		t.Fatalf("created %d, completed %d, expired %d, evicted %d, active %d: want %d created, %d evicted, %d active, and created == completed + expired + evicted + active",
			created, completed, expired, evicted, active, 2*capacity, capacity, capacity)
	}
}

// TestCapacityRetryAfterRoundsUp: a capacity 503's Retry-After must not
// send the client back before the oldest session becomes evictable, at
// half of MaxSessionAge; a wait of 1.49 s is 2 s on the wire, not 1.
func TestCapacityRetryAfterRoundsUp(t *testing.T) {
	svc, srv, parties := concurrentTN(t, 1)
	svc.MaxSessions = 1
	svc.MaxSessionAge = 3 * time.Second
	cli := &TNClient{BaseURL: srv.URL, Party: parties[0]}
	started := time.Now()
	if _, err := cli.Start(bg, "R"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/tn/start", ContentType, strings.NewReader(`<startNegotiationRequest resource="R"/>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	answered := time.Now()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second start at capacity: status %d, want 503", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	evictable := started.Add(svc.MaxSessionAge / 2)
	if retry := answered.Add(time.Duration(secs) * time.Second); retry.Before(evictable) {
		t.Fatalf("Retry-After: %d sends the client back %s before the first session becomes evictable", secs, evictable.Sub(retry))
	}
}
