package wsrpc

import (
	"context"
	"strings"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/xmldom"
)

// Cluster-facing session-table operations. internal/cluster routes
// sessions across nodes by hashing their ids onto a ring; these methods
// are the service-side primitives failover and draining build on:
// adopt a shipped session, materialize an externally-assigned id, drain
// sessions off a node, and answer ownership probes.

// HasSession reports whether id maps to a live session, without
// refreshing its idle clock.
func (s *TNService) HasSession(id string) bool {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.m[id] != nil
}

// AdoptSessionDoc restores one session document (the <tnSession> the
// suspend and standby paths write), given as its bytes, into the live
// table under its embedded id, and returns the id. When a live session
// already holds the id the adoption is skipped: the live copy is at
// least as fresh as any shipped snapshot, so a duplicate or stale
// delivery must not clobber it.
func (s *TNService) AdoptSessionDoc(doc string) (string, error) {
	id, sess, err := s.restoreSession(doc)
	if err != nil {
		return "", err
	}
	if s.insert(id, sess) {
		if m := s.Metrics; m != nil {
			m.Counter("tn_sessions_adopted_total").Inc()
		}
	}
	return id, nil
}

// EnsureSession materializes a fresh session under an externally
// assigned id when none exists (idempotent). The cluster router uses
// this when the first message of a negotiation arrives for an id whose
// /tn/start was served by a node that died before any state shipped:
// start assigns an id and nothing more, so a fresh endpoint loses
// nothing.
func (s *TNService) EnsureSession(id string) error {
	if s.HasSession(id) {
		return nil
	}
	party, err := s.sessionParty()
	if err != nil {
		return err
	}
	id = strings.Clone(id) // the router parsed it out of the whole request body
	sh := s.shard(id)
	if err := s.admit(sh); err != nil {
		return err
	}
	sh.mu.Lock() //lint:allow nakedlock slot release on the exists path must run outside the stripe lock
	if _, exists := sh.m[id]; exists {
		sh.mu.Unlock()
		s.active.Add(-1) // lost the race: the winner holds the slot
		return nil
	}
	sh.m[id] = &tnSession{
		endpoint: negotiation.NewController(party),
		lastUsed: time.Now(),
	}
	sh.mu.Unlock()
	if m := s.Metrics; m != nil {
		m.Counter("tn_sessions_created_total").Inc()
		m.Gauge("tn_sessions_active").Inc()
	}
	return nil
}

// DrainSessions removes every session from the table and returns the
// encode methods of their documents keyed by id: a live session's
// suspended state, a finished one's verdict and reply cache
// (encodeDone), so the node that adopts it replays the final reply
// instead of running the last step again. Sessions with nothing to
// snapshot (no message processed yet) are returned with a nil method, so
// the caller can still count them. Each removed session's capacity slot
// is released, and a handler that looked one up before it left answers
// through SessionMissing instead of advancing it: a drained session is
// frozen, so its encode method stays valid.
func (s *TNService) DrainSessions() map[string]func(*xmldom.Writer) {
	out := make(map[string]func(*xmldom.Writer))
	for _, sh := range s.shardTable() {
		sh.mu.Lock() //lint:allow nakedlock swap per stripe inside a loop; defer would hold the lock across stripes
		drained := sh.m
		sh.m = make(map[string]*tnSession)
		sh.mu.Unlock()
		for id, sess := range drained {
			s.retire(sess)
			out[id] = sess.moveOut(id)
		}
	}
	return out
}

// ReshipSessions passes every live session with state through
// OnSessionUpdate again, each under its lock, and returns the first
// error. internal/cluster runs it after a membership change, which can
// move a session's standby target to a node that holds no copy yet:
// until the session's next message ships, one more failure would lose
// it.
func (s *TNService) ReshipSessions(ctx context.Context) error {
	return s.eachLive(func(id string, sess *tnSession) error { return s.shipSessionUpdate(ctx, id, sess) })
}

// eachLive runs f on every unfinished session in the table, under the
// session's lock, unless the session has moved on meanwhile, and returns
// the first error. The table is snapshotted stripe by stripe, and f runs
// outside every stripe lock: it may take one, or hit the store.
func (s *TNService) eachLive(f func(id string, sess *tnSession) error) error {
	type held struct {
		id   string
		sess *tnSession
	}
	var live []held
	for _, sh := range s.shardTable() {
		sh.mu.Lock() //lint:allow nakedlock snapshot per stripe inside a loop; defer would hold the lock across stripes
		for id, sess := range sh.m {
			if !sess.done.Load() {
				live = append(live, held{id, sess})
			}
		}
		sh.mu.Unlock()
	}
	var firstErr error
	for _, h := range live {
		if err := h.sess.locked(func() error { return f(h.id, h.sess) }); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// locked runs f under the session's lock, unless the session has moved.
func (sess *tnSession) locked(f func() error) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.moved {
		return nil
	}
	return f()
}

// ReleaseSession removes session id from the table and returns the
// encode method of its document for another node to adopt — a finished
// session's verdict and reply cache included, so a client whose final
// reply was lost still gets it replayed. The released session is
// frozen, so the method stays valid. It returns nil when id is not
// held, has expired, or has no state to move (no message handled yet);
// such a session is dropped, and its client restarts from its first
// message.
func (s *TNService) ReleaseSession(id string) func(*xmldom.Writer) {
	sh := s.shard(id)
	sh.mu.Lock() //lint:allow nakedlock retire and snapshot below must run outside the stripe lock
	sess := sh.m[id]
	stale := sess != nil && s.stale(sess, time.Now())
	delete(sh.m, id)
	sh.mu.Unlock()
	if sess == nil {
		return nil
	}
	if stale {
		s.retireStale(sess)
		return nil
	}
	s.retire(sess)
	return sess.moveOut(id)
}
