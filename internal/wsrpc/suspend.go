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
// session's last use, which the table lock guards: the document
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

// moveOut marks the session as gone to another node and returns the
// encode method of its document, a finished one's verdict and reply
// cache (encodeDone). It returns nil for a session with no message
// handled yet. The session has left the table, so no lookup refreshes
// lastUsed any more, and a moved session is frozen: no handler advances
// it, so encode may run after the lock is released.
func (sess *tnSession) moveOut(id string) func(*xmldom.Writer) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.moved = true
	used := sess.lastUsed
	switch {
	case sess.done.Load():
		return func(w *xmldom.Writer) { sess.encodeDone(w, id, used) }
	case sess.resumable():
		return func(w *xmldom.Writer) { sess.encodeSuspended(w, id, used) }
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
	// The documents are written under each session's lock and stored
	// after, outside it: a put waits on the WAL. A session a concurrent
	// sweep expires once eachLive saw it is still safe to persist:
	// retire() released its slot exactly once, and the restored copy
	// claims a fresh one.
	type record struct{ id, xml string }
	var docs []record
	s.eachLive(func(id string, sess *tnSession) error {
		if sess.resumable() { // else, e.g., a session /tn/start made that never saw a message
			used := s.lastUse(sess)
			docs = append(docs, record{id, xmldom.String(func(w *xmldom.Writer) { sess.encodeSuspended(w, id, used) })})
		}
		return nil
	})
	suspended := 0
	for _, d := range docs {
		if err := db.PutXML(KindTNSession, d.id, d.xml); err != nil {
			return suspended, err
		}
		suspended++
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
		id, sess, err := s.restoreSession(rec.XML)
		if err != nil {
			s.logf("wsrpc: dropping unrestorable suspended session %s: %v", rec.Key, err)
		} else if s.insert(id, sess) {
			if m := s.Metrics; m != nil {
				m.Counter("tn_sessions_resumed_total").Inc()
			}
			resumed++
		}
		db.Delete(KindTNSession, rec.Key)
	}
	return resumed, db.Sync()
}

// insert puts a restored session into the table under id, unless a
// session already holds the id: the live copy is at least as fresh as
// any stored or shipped snapshot, so a duplicate or stale one must not
// clobber it. A live (unfinished) session claims a capacity slot. insert
// reports whether the session went in.
func (s *TNService) insert(id string, sess *tnSession) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, held := s.sessions[id]; held {
		return false
	}
	s.put(id, sess)
	if !sess.deactivated.Load() {
		s.active.Add(1)
		if m := s.Metrics; m != nil {
			m.Gauge("tn_sessions_active").Inc()
		}
	}
	return true
}

// restoreSession decodes a session document, <tnSession>, in one
// xmldom.Reader pass over its bytes and rebuilds the session and its id,
// refusing one the table's staleness rule expires at its recorded last
// use: a session idle past its lifetime does not come back, from a
// standby copy or from the store. A document without lastUsed restarts
// the idle clock. Of the children, the first <negotiationState> (of a
// live session), <outcome> (of a finished one) and <lastReply> count.
func (s *TNService) restoreSession(doc string) (id string, sess *tnSession, err error) {
	r := xmldom.NewReader(doc)
	defer func() {
		if serr := r.Close(); serr != nil {
			id, sess, err = "", nil, serr
		}
	}()
	r.Child(0)
	// The id keys the table for the session's life; a decoded one is a
	// substring of the whole document.
	if id = strings.Clone(r.AttrOr("id", "")); id == "" {
		return "", nil, &Error{
			Op:     "resume",
			Status: http.StatusBadRequest,
			Code:   "schema",
			Err:    fmt.Errorf("wsrpc: session document without id"),
		}
	}
	if r.Name() != "tnSession" {
		return "", nil, fmt.Errorf("expected <tnSession>, got <%s>", r.Name())
	}
	rawSeq, rawStatus, rawUsed := r.AttrOr("lastSeq", ""), r.AttrOr("lastStatus", ""), r.AttrOr("lastUsed", "")
	sess = &tnSession{lastUsed: time.Now()}
	done := r.AttrOr("done", "") == "true"
	var party *negotiation.Party
	if done {
		// A finished session (encodeDone) holds no capacity slot.
		sess.done.Store(true)
		sess.deactivated.Store(true)
	} else if party, err = s.sessionParty(); err != nil {
		return "", nil, err
	}
	stateErr := fmt.Errorf("wsrpc: session document without <negotiationState>")
	var seenState, seenOutcome, seenReply bool
	for d := r.Depth(); r.Child(d); {
		switch r.Name() {
		case "negotiationState":
			if !done && !seenState {
				seenState = true
				sess.endpoint, stateErr = negotiation.DecodeSnapshot(party, r)
			}
		case "outcome":
			if done && !seenOutcome {
				seenOutcome = true
				sess.outcome = verdict(&negotiation.Outcome{
					Succeeded: r.AttrOr("succeeded", "") == "true",
					Resource:  r.AttrOr("resource", ""),
					Reason:    r.AttrOr("reason", ""),
				})
			}
		case "lastReply":
			if !seenReply {
				seenReply = true
				sess.lastReply = strings.Clone(r.Text()) // kept after the session finishes
			}
		}
	}
	// Read the rest: a syntax error anywhere wins over the checks below.
	for r.Next() != xmldom.NoToken {
	}
	if err = r.Err(); err == nil && !done {
		err = stateErr
	}
	if err != nil {
		return "", nil, err
	}
	// A malformed lastSeq or lastStatus must not be collapsed to 0: seq 0
	// disables the replay cache, so a corrupt record would silently lose
	// the session's at-most-once protection. Reject it; the caller logs
	// and drops the record.
	if rawSeq != "" {
		if sess.lastSeq, err = strconv.ParseInt(rawSeq, 10, 64); err != nil || sess.lastSeq < 0 {
			return "", nil, s.malformedSession("lastSeq", rawSeq)
		}
	}
	if rawStatus != "" {
		if sess.lastReplyStatus, err = strconv.Atoi(rawStatus); err != nil || sess.lastReplyStatus < 0 {
			return "", nil, s.malformedSession("lastStatus", rawStatus)
		}
	}
	if rawUsed != "" {
		if sess.lastUsed, err = time.Parse(time.RFC3339Nano, rawUsed); err != nil {
			return "", nil, s.malformedSession("lastUsed", rawUsed)
		}
	}
	if s.stale(sess, time.Now()) {
		return "", nil, &Error{
			Op:     "resume",
			Status: http.StatusNotFound,
			Code:   "negotiation",
			Err:    fmt.Errorf("wsrpc: negotiation idle since %s has expired", sess.lastUsed.UTC().Format(time.RFC3339)),
		}
	}
	return id, sess, nil
}

// malformedSession reports a session document's malformed lastSeq,
// lastStatus or lastUsed attribute, raw, as a bad envelope.
func (s *TNService) malformedSession(attr, raw string) error {
	s.countBadEnvelope()
	return &Error{
		Op:     "resume",
		Status: http.StatusBadRequest,
		Code:   "envelope",
		Err:    fmt.Errorf("wsrpc: malformed %s %q in suspended session", attr, raw),
	}
}
