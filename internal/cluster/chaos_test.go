package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xmldom"
)

// TestClusterChaosTorture is the deterministic node-kill torture test:
// three nodes under continuous join and put traffic while the harness
// kills and revives every node in rotation (some on a fresh disk,
// forcing snapshot catch-up), fails the leader over to the most
// advanced survivor, and injects network partitions and a slow-follower
// window. The invariant checked at the end is the headline guarantee of
// the cluster: no acknowledged join and no acknowledged put is ever
// lost.
func TestClusterChaosTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos torture skipped in -short")
	}
	c := newTestCluster(t, true /* sync repl: acks gated on quorum */, 64)
	c.floor = 4 * time.Millisecond // stretch joins so kills land mid-negotiation
	defer c.shutdown()
	names := []string{"n1", "n2", "n3"}
	for _, n := range names {
		c.addNode(n)
	}
	c.setLeader("n1")

	const (
		joinWorkers = 4
		kills       = 12
		// resumeGrace bounds how long a suspended negotiation may keep
		// resuming after the cluster healed; a session that cannot
		// converge within it is lost. Sized for a starved CI host: when
		// the whole suite shares one core the test runs ~7× slower than
		// alone, and breaker-cooldown windows stretch with it. A healthy
		// run converges in milliseconds and never waits this long.
		resumeGrace = 90 * time.Second
	)
	var (
		stop         = make(chan struct{})
		wg           sync.WaitGroup
		joins        atomic.Int64
		startRetries atomic.Int64
		ackedMu      sync.Mutex
		acked        []string
		errCh        = make(chan error, joinWorkers+2)
	)

	// Join workers: negotiate in a loop against whatever node is alive.
	// A suspension (transport failure mid-negotiation) is resumed against
	// a live node — possibly many times as the chaos moves state around —
	// and must eventually converge: once the controller has acked
	// progress, the session is recoverable by design, so running out of
	// resume budget or hitting a non-resumable error mid-session is a
	// lost acked session and fails the test.
	for w := 0; w < joinWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			party := c.memberParty(fmt.Sprintf("ChaosMember%d", w))
			cli := &wsrpc.TNClient{
				Party: party,
				Transport: &wsrpc.Transport{
					RequestTimeout:  2 * time.Second,
					Retry:           clientRetry(),
					BreakerCooldown: 100 * time.Millisecond,
					Metrics:         c.reg,
				},
				NegotiationTimeout: 20 * time.Second,
				ResumeTTL:          time.Minute,
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				cli.BaseURL = c.liveBase()
				out, err := cli.Negotiate(bg, chaosResource)
				resumes := 0
				var graceUntil time.Time
				history := resumeLog{start: time.Now()}
				for err != nil {
					var se *wsrpc.SuspendedError
					if !errors.As(err, &se) {
						break
					}
					history.seen(err)
					resumes++
					// While the chaos is running a session may suspend over
					// and over; once it stops, convergence is bounded.
					select {
					case <-stop:
						if graceUntil.IsZero() {
							graceUntil = time.Now().Add(resumeGrace)
						}
						if time.Now().After(graceUntil) {
							errCh <- fmt.Errorf("worker %d: acked session lost, no convergence after heal: %w\n%s", w, err, &history)
							return
						}
					default:
					}
					time.Sleep(10 * time.Millisecond)
					cli.BaseURL = c.liveBase()
					history.targets = append(history.targets, c.nameOf(cli.BaseURL))
					out, err = cli.Resume(bg, se.Ticket)
				}
				if err != nil {
					if resumes > 0 {
						// The session had acked progress (it suspended) and then
						// failed non-resumably: that is a lost session.
						errCh <- fmt.Errorf("worker %d: resumed session failed non-resumably: %w\n%s", w, err, &history)
						return
					}
					// Failed before anything was acked (e.g. start hit a node
					// mid-kill): nothing lost, start over.
					startRetries.Add(1)
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if !out.Succeeded {
					errCh <- fmt.Errorf("worker %d: negotiation denied: %s", w, out.Reason)
					return
				}
				joins.Add(1)
			}
		}(w)
	}

	// Put worker: writes through the current leader and records every
	// acknowledged key. With sync replication an ack means a quorum
	// follower already holds the write, so each recorded key must survive
	// any sequence of failovers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			ld := c.leaderNode()
			if ld == nil {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			key := fmt.Sprintf("acked-%06d", i)
			i++
			if err := ld.db.PutXML("chaos", key, chaosDoc(i)); err == nil {
				ackedMu.Lock()
				acked = append(acked, key)
				ackedMu.Unlock()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The chaos schedule: kill every node in rotation, fail the leader
	// over when it dies, revive (every third revival on a fresh disk to
	// force a snapshot catch-up), and salt in two partitions and one
	// slow-follower window. One node is down at a time, matching the
	// standby invariant's single-failure design point.
	endpoints := func() []string {
		var eps []string
		for _, tn := range c.liveNodes() {
			eps = append(eps, tn.srv.Listener.Addr().String())
		}
		return eps
	}
	for k := 0; k < kills; k++ {
		victim := names[k%len(names)]
		time.Sleep(150 * time.Millisecond)
		c.mu.Lock()
		wasLeader := c.leader == victim
		c.mu.Unlock()
		c.kill(victim)
		if wasLeader {
			c.failover()
		}
		// Survivors re-ship standbys whose successor died.
		for _, tn := range c.liveNodes() {
			tn.node.Reship(bg)
		}
		time.Sleep(80 * time.Millisecond)
		c.revive(victim, (k+1)%3 == 0)
		switch k {
		case 3, 7:
			// Partition two live nodes from each other for a window.
			if eps := endpoints(); len(eps) >= 2 {
				c.net.SplitFor(eps[:1], eps[1:2], 80*time.Millisecond)
				time.Sleep(120 * time.Millisecond)
			}
		case 5:
			// Slow-follower window: delay one node's inbound traffic.
			if eps := endpoints(); len(eps) >= 2 {
				c.net.SetDelay(eps[1], 10*time.Millisecond)
				time.Sleep(100 * time.Millisecond)
				c.net.SetDelay(eps[1], 0)
			}
		}
	}
	c.net.Heal()
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Zero lost acked puts: promote the most advanced survivor (the real
	// failover rule) and require every acknowledged key on it.
	final := c.get(c.failover())
	ackedMu.Lock()
	defer ackedMu.Unlock()
	for _, key := range acked {
		if _, err := final.db.Get("chaos", key); err != nil {
			t.Errorf("acked put %s lost after failover to %s: %v", key, final.name, err)
		}
	}
	t.Logf("chaos: %d joins, %d fresh-start retries, %d acked puts, %d kills, %d splits",
		joins.Load(), startRetries.Load(), len(acked), kills, c.net.Splits())

	if joins.Load() == 0 {
		t.Error("no join ever completed under chaos")
	}
	if got := c.net.Splits(); got < 2 {
		t.Errorf("chaos ran %d partitions, want >= 2", got)
	}
	if got := c.reg.Counter("cluster_promotions_total").Value(); got < 2 {
		t.Errorf("cluster_promotions_total = %d, want >= 2 (initial + failovers)", got)
	}
	if got := c.reg.Counter("cluster_repl_catchups_total").Value(); got < 1 {
		t.Errorf("cluster_repl_catchups_total = %d, want >= 1 (fresh-disk revivals)", got)
	}
	if c.reg.Counter("cluster_adoptions_total", "source", "standby").Value() == 0 {
		t.Error("no session was ever adopted from standby under chaos")
	}
}

// ownedID finds an id string the ring assigns to the wanted node.
func ownedID(t *testing.T, r *Ring, prefix, want string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if r.Owner(id) == want {
			return id
		}
	}
	t.Fatalf("no id with prefix %s owned by %s", prefix, want)
	return ""
}

// firstEnvelope wraps a genuine first requester message for id in a
// wire envelope, as the client would send it.
func firstEnvelope(t testing.TB, c *testCluster, member, id string) string {
	t.Helper()
	req := negotiation.NewRequester(c.memberParty(member), chaosResource)
	first, err := req.Start()
	if err != nil {
		t.Fatal(err)
	}
	env := xmldom.NewElement("envelope").SetAttr("negotiation", id).SetAttr("seq", "1")
	env.AppendChild(xmldom.Tree(first.Encode))
	return env.XML()
}

// TestForwardMisroutedExchange: an exchange for a session owned
// elsewhere is proxied to its owner through the hardened transport, and
// counted.
func TestForwardMisroutedExchange(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	c.addNode("n1")
	c.addNode("n2")

	id := ownedID(t, c.ring, "fwd", "n2")
	before := c.reg.Counter("cluster_forwards_total", "route", "/tn/policyExchange").Value()
	resp, err := http.Post(c.get("n1").srv.URL+"/tn/policyExchange", wsrpc.ContentType,
		strings.NewReader(firstEnvelope(t, c, "FwdMember", id)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded exchange status %d", resp.StatusCode)
	}
	if got := c.reg.Counter("cluster_forwards_total", "route", "/tn/policyExchange").Value(); got != before+1 {
		t.Fatalf("cluster_forwards_total = %d, want %d", got, before+1)
	}
	// The owner materialized the session for the first ("request")
	// message before serving it.
	if !c.get("n2").tn.HasSession(id) {
		t.Fatalf("owner n2 did not materialize session %s", id)
	}
}

// TestRedirectMisroutedExchange: in redirect mode the misrouted client
// gets a 307 pointing at the owner and re-POSTs there itself.
func TestRedirectMisroutedExchange(t *testing.T) {
	c := newTestCluster(t, false, 0)
	c.redirect = true
	defer c.shutdown()
	c.addNode("n1")
	c.addNode("n2")

	id := ownedID(t, c.ring, "redir", "n2")
	noFollow := &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	body := firstEnvelope(t, c, "RedirMember", id)
	resp, err := noFollow.Post(c.get("n1").srv.URL+"/tn/policyExchange", wsrpc.ContentType,
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("status %d, want 307", resp.StatusCode)
	}
	want := c.get("n2").srv.URL + "/tn/policyExchange"
	if loc := resp.Header.Get("Location"); loc != want {
		t.Fatalf("Location %q, want %q", loc, want)
	}
	if got := c.reg.Counter("cluster_redirects_total", "route", "/tn/policyExchange").Value(); got < 1 {
		t.Fatalf("cluster_redirects_total = %d", got)
	}
	// A client that follows the redirect lands on the owner. net/http
	// re-POSTs the body on 307 via GetBody.
	resp2, err := http.Post(c.get("n1").srv.URL+"/tn/policyExchange", wsrpc.ContentType,
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if !c.get("n2").tn.HasSession(id) {
		t.Fatalf("owner n2 never saw redirected session %s", id)
	}
}

// TestTransportFollowsClusterRedirect: a wsrpc.Transport posting a first
// exchange to a node of a Redirect cluster that does not own the session
// follows the 307 itself, re-posting the body to the owner, and returns
// the owner's reply.
func TestTransportFollowsClusterRedirect(t *testing.T) {
	c := newTestCluster(t, false, 0)
	c.redirect = true
	defer c.shutdown()
	c.addNode("n1")
	c.addNode("n2")

	id := ownedID(t, c.ring, "tredir", "n2")
	redirects := c.reg.Counter("cluster_redirects_total", "route", "/tn/policyExchange")
	before := redirects.Value()
	tr := &wsrpc.Transport{}
	var root, got string
	_, err := tr.CallBody(context.Background(), http.MethodPost, c.get("n1").srv.URL, "/tn/policyExchange", "",
		firstEnvelope(t, c, "TRedirMember", id), false, func(r *xmldom.Reader) error {
			root, got = r.Name(), r.AttrOr("negotiation", "")
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if root != "envelope" || got != id {
		t.Fatalf("reply <%s negotiation=%q>, want the envelope of session %s", root, got, id)
	}
	if !c.get("n2").tn.HasSession(id) {
		t.Fatalf("owner n2 never saw redirected session %s", id)
	}
	if got := redirects.Value(); got != before+1 {
		t.Fatalf("cluster_redirects_total = %d, want %d", got, before+1)
	}
}

// resumeLog is one suspended session's history, reported when it does
// not converge: the node each resume went to, and every distinct error
// seen, with its count and its first and last occurrence since the
// session started.
type resumeLog struct {
	start   time.Time
	targets []string
	errs    []seenError
}

type seenError struct {
	msg         string
	count       int
	first, last time.Duration
}

func (l *resumeLog) seen(err error) {
	at := time.Since(l.start).Round(time.Millisecond)
	msg := err.Error()
	for i := range l.errs {
		if l.errs[i].msg == msg {
			l.errs[i].count++
			l.errs[i].last = at
			return
		}
	}
	l.errs = append(l.errs, seenError{msg: msg, count: 1, first: at, last: at})
}

func (l *resumeLog) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %d resumes, to: %s\n", len(l.targets), strings.Join(l.targets, " "))
	for _, e := range l.errs {
		fmt.Fprintf(&b, "  %d× (first %v, last %v): %s\n", e.count, e.first, e.last, e.msg)
	}
	return b.String()
}

// nameOf names the live node serving base, or returns base when none
// does.
func (c *testCluster) nameOf(base string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, tn := range c.nodes {
		if tn.srv.URL == base {
			return name
		}
	}
	return base
}
