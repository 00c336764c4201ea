package wsrpc

import (
	"context"
	"fmt"
	"net/http"
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

// AdoptSessionDoc restores one suspended-session document (the
// <tnSession> produced by the suspend/standby path) into the live table
// under its embedded id, claiming a capacity slot. When a live session
// already holds the id the adoption is skipped — the live copy is at
// least as fresh as any shipped snapshot, so a duplicate or stale
// delivery must not clobber it.
func (s *TNService) AdoptSessionDoc(doc *xmldom.Node) (string, error) {
	// The id keys the table for the session's life; a parsed one is a
	// substring of the whole shipped body.
	id := strings.Clone(doc.AttrOr("id", ""))
	if id == "" {
		return "", &Error{
			Op:     "adopt",
			Status: http.StatusBadRequest,
			Code:   "schema",
			Err:    fmt.Errorf("wsrpc: session document without id"),
		}
	}
	sess, err := s.restoreSession(doc)
	if err != nil {
		return "", err
	}
	sh := s.shard(id)
	sh.mu.Lock() //lint:allow nakedlock metrics below must run outside the stripe lock
	if _, exists := sh.m[id]; exists {
		sh.mu.Unlock()
		return id, nil
	}
	sh.m[id] = sess
	sh.mu.Unlock()
	live := !sess.deactivated.Load()
	if live {
		s.active.Add(1)
	}
	if m := s.Metrics; m != nil {
		m.Counter("tn_sessions_adopted_total").Inc()
		if live {
			m.Gauge("tn_sessions_active").Inc()
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

// DrainSessions removes every session from the table and returns their
// documents keyed by id: a live session's suspended state, a finished
// one's verdict and reply cache (encodeDone), so the node that adopts
// it replays the final reply instead of running the last step again.
// Sessions with nothing to snapshot (no message processed yet) are
// returned with a nil document, so the caller can still count them.
// Each removed session's capacity slot is released, and a handler that
// looked one up before it left answers through SessionMissing instead
// of advancing it.
func (s *TNService) DrainSessions() map[string]*xmldom.Node {
	out := make(map[string]*xmldom.Node)
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
		if err := h.sess.reship(ctx, s, h.id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// reship runs one session's standby ship outside a handler, unless the
// session has moved on meanwhile.
func (sess *tnSession) reship(ctx context.Context, s *TNService, id string) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.moved {
		return nil
	}
	return s.shipSessionUpdate(ctx, id, sess)
}

// ReleaseSession removes session id from the table and returns its
// document for another node to adopt — a finished session's verdict and
// reply cache included, so a client whose final reply was lost still
// gets it replayed. It returns nil when id is not held, has expired, or
// has no state to move (no message handled yet); such a session is
// dropped, and its client restarts from its first message.
func (s *TNService) ReleaseSession(id string) *xmldom.Node {
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
