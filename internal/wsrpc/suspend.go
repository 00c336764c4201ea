package wsrpc

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/store"
	"trustvo/internal/xmldom"
)

// Server-side negotiation suspend/resume.
//
// On graceful shutdown, a TNService can persist its live, unfinished
// sessions into the WAL-backed store — the negotiation tree snapshot
// plus the reply cache — and a restarted service restores them, so a
// client retrying (or resuming from its own ticket) continues the same
// negotiation instead of getting "unknown negotiation". This is the
// server half of the Trust-X interruption-recovery mechanism; the
// client half is TNClient.Resume.

// KindTNSession is the store kind for suspended negotiation sessions.
const KindTNSession = "tnsession"

// suspendDoc snapshots one session, last used at used, into its store
// document under the session lock, reporting ok=false when there is
// nothing to resume.
func (sess *tnSession) suspendDoc(id string, used time.Time) (doc *xmldom.Node, ok bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if !sess.resumable() {
		return nil, false
	}
	return xmldom.Tree(func(w *xmldom.Writer) { sess.encodeSuspended(w, id, used) }), true
}

// resumable reports whether the session has negotiation state to
// suspend: not finished, and past its first message (caller holds
// sess.mu).
func (sess *tnSession) resumable() bool {
	return !sess.done.Load() && sess.endpoint.SnapshotErr() == nil
}

// encodeSuspended writes a live session's store document, its
// negotiation state and reply cache, as <tnSession> (caller holds
// sess.mu and has checked resumable). The per-message standby ship
// writes it inside the exchange handler's critical section. used is the
// session's last use, which its stripe's lock guards: the document
// carries the idle clock, so a restored session expires when it would
// have expired where it was.
func (sess *tnSession) encodeSuspended(w *xmldom.Writer, id string, used time.Time) {
	w.Start("tnSession")
	w.Attr("id", id)
	w.AttrInt("lastSeq", sess.lastSeq)
	w.AttrInt("lastStatus", int64(sess.lastReplyStatus))
	w.AttrTime("lastUsed", used.UTC(), time.RFC3339Nano)
	sess.endpoint.EncodeSnapshot(w)
	sess.encodeLastReply(w)
	w.End()
}

// encodeDone writes a finished session's document: no negotiation
// state, only what /tn/status reports and the reply cache, so the node
// adopting it replays the final reply to a client that never received
// it (caller holds sess.mu).
func (sess *tnSession) encodeDone(w *xmldom.Writer, id string, used time.Time) {
	w.Start("tnSession")
	w.Attr("id", id)
	w.Attr("done", "true")
	w.AttrInt("lastSeq", sess.lastSeq)
	w.AttrInt("lastStatus", int64(sess.lastReplyStatus))
	w.AttrTime("lastUsed", used.UTC(), time.RFC3339Nano)
	if out := sess.outcome; out != nil {
		w.Start("outcome")
		w.Attr("succeeded", boolStr(out.Succeeded))
		w.Attr("resource", out.Resource)
		if out.Reason != "" {
			w.Attr("reason", out.Reason)
		}
		w.End()
	}
	sess.encodeLastReply(w)
	w.End()
}

func (sess *tnSession) encodeLastReply(w *xmldom.Writer) {
	if sess.lastReply != "" {
		w.Start("lastReply")
		w.Text(sess.lastReply)
		w.End()
	}
}

// moveOut marks the session as gone to another node and snapshots it,
// a finished one as its verdict and reply cache (encodeDone). It
// returns nil for a session with no message handled yet. The session
// has left the table, so no lookup refreshes lastUsed any more.
func (sess *tnSession) moveOut(id string) *xmldom.Node {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.moved = true
	switch {
	case sess.done.Load():
		return xmldom.Tree(func(w *xmldom.Writer) { sess.encodeDone(w, id, sess.lastUsed) })
	case sess.resumable():
		return xmldom.Tree(func(w *xmldom.Writer) { sess.encodeSuspended(w, id, sess.lastUsed) })
	}
	return nil
}

// SuspendSessions persists every live, unfinished session to db and
// returns how many were written. Sessions that never processed a
// message carry no state worth saving and are skipped. Call after the
// HTTP server has drained (no in-flight handlers).
func (s *TNService) SuspendSessions(db *store.Store) (int, error) {
	if db == nil {
		return 0, fmt.Errorf("wsrpc: suspend requires a store")
	}
	suspended := 0
	for _, sh := range s.shardTable() {
		// Snapshot the stripe under its lock, then serialize outside it:
		// suspendDoc takes sess.mu and db.Put hits the WAL, neither of
		// which belongs inside a stripe critical section. A session the
		// snapshot caught that a concurrent sweep then expires is still
		// safe to persist — retire() guarantees the slot was released
		// exactly once, and the restored copy claims a fresh slot.
		sh.mu.Lock() //lint:allow nakedlock snapshot per stripe inside a loop; defer would hold the lock across stripes
		live := make(map[string]*tnSession, len(sh.m))
		for id, sess := range sh.m {
			if !sess.done.Load() {
				live[id] = sess
			}
		}
		sh.mu.Unlock()
		for id, sess := range live {
			doc, ok := sess.suspendDoc(id, s.lastUse(id, sess))
			if !ok {
				// e.g. a session created by /tn/start that never saw a
				// message: nothing to resume
				continue
			}
			if err := db.Put(KindTNSession, id, doc); err != nil {
				return suspended, err
			}
			suspended++
		}
	}
	if m := s.Metrics; m != nil && suspended > 0 {
		m.Counter("tn_sessions_suspended_total").Add(int64(suspended))
	}
	return suspended, db.Sync()
}

// ResumeSessions restores sessions previously written by SuspendSessions
// and deletes their records. Unrestorable records (e.g. a credential no
// longer held, or a session idle past its lifetime) are logged, removed,
// and skipped — they must not wedge startup.
func (s *TNService) ResumeSessions(db *store.Store) (int, error) {
	if db == nil {
		return 0, fmt.Errorf("wsrpc: resume requires a store")
	}
	resumed := 0
	for _, rec := range db.List(KindTNSession) {
		id := rec.Key
		doc, err := rec.Doc()
		if err != nil {
			s.logf("wsrpc: dropping unreadable suspended session %s: %v", id, err)
			db.Delete(KindTNSession, id)
			continue
		}
		sess, err := s.restoreSession(doc)
		if err != nil {
			s.logf("wsrpc: dropping unrestorable suspended session %s: %v", id, err)
			db.Delete(KindTNSession, id)
			continue
		}
		s.shard(id).put(id, sess)
		s.active.Add(1)
		if m := s.Metrics; m != nil {
			m.Counter("tn_sessions_resumed_total").Inc()
			m.Gauge("tn_sessions_active").Inc()
		}
		db.Delete(KindTNSession, id)
		resumed++
	}
	return resumed, db.Sync()
}

// restoreSession rebuilds a session from its document, refusing one the
// table's staleness rule expires at its recorded last use: a session
// idle past its lifetime does not come back, from a standby copy or from
// the store. A document without lastUsed restarts the idle clock.
func (s *TNService) restoreSession(doc *xmldom.Node) (*tnSession, error) {
	if doc.Name != "tnSession" {
		return nil, fmt.Errorf("expected <tnSession>, got <%s>", doc.Name)
	}
	sess := &tnSession{lastUsed: time.Now()}
	if doc.AttrOr("done", "") == "true" {
		// A finished session (encodeDone) holds no capacity slot.
		sess.done.Store(true)
		sess.deactivated.Store(true)
		if o := doc.Child("outcome"); o != nil {
			sess.outcome = verdict(&negotiation.Outcome{
				Succeeded: o.AttrOr("succeeded", "") == "true",
				Resource:  o.AttrOr("resource", ""),
				Reason:    o.AttrOr("reason", ""),
			})
		}
	} else {
		party, err := s.sessionParty()
		if err != nil {
			return nil, err
		}
		if sess.endpoint, err = negotiation.RestoreEndpoint(party, doc.Child("negotiationState")); err != nil {
			return nil, err
		}
	}
	// A malformed lastSeq or lastStatus must not be collapsed to 0: seq 0
	// disables the replay cache, so a corrupt record would silently lose
	// the session's at-most-once protection. Reject it; the caller logs
	// and drops the record.
	if raw := doc.AttrOr("lastSeq", ""); raw != "" {
		var err error
		sess.lastSeq, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || sess.lastSeq < 0 {
			s.countBadEnvelope()
			return nil, &Error{
				Op:     "resume",
				Status: http.StatusBadRequest,
				Code:   "envelope",
				Err:    fmt.Errorf("wsrpc: malformed lastSeq %q in suspended session", raw),
			}
		}
	}
	if raw := doc.AttrOr("lastStatus", ""); raw != "" {
		var err error
		sess.lastReplyStatus, err = strconv.Atoi(raw)
		if err != nil || sess.lastReplyStatus < 0 {
			s.countBadEnvelope()
			return nil, &Error{
				Op:     "resume",
				Status: http.StatusBadRequest,
				Code:   "envelope",
				Err:    fmt.Errorf("wsrpc: malformed lastStatus %q in suspended session", raw),
			}
		}
	}
	if raw := doc.AttrOr("lastUsed", ""); raw != "" {
		used, err := time.Parse(time.RFC3339Nano, raw)
		if err != nil {
			s.countBadEnvelope()
			return nil, &Error{
				Op:     "resume",
				Status: http.StatusBadRequest,
				Code:   "envelope",
				Err:    fmt.Errorf("wsrpc: malformed lastUsed %q in suspended session", raw),
			}
		}
		sess.lastUsed = used
	}
	if s.stale(sess, time.Now()) {
		return nil, &Error{
			Op:     "resume",
			Status: http.StatusNotFound,
			Code:   "negotiation",
			Err:    fmt.Errorf("wsrpc: negotiation idle since %s has expired", sess.lastUsed.UTC().Format(time.RFC3339)),
		}
	}
	if lr := doc.Child("lastReply"); lr != nil {
		sess.lastReply = strings.Clone(lr.Text()) // kept after the session finishes
	}
	return sess, nil
}
