package wsrpc

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/partydb"
	"trustvo/internal/store"
	"trustvo/internal/telemetry"
	"trustvo/internal/xmldom"
)

// TNService exposes a controller party as the paper's TN web service
// (§6.2): "The TN Web service provides three different operations,
// StartNegotiation, PolicyExchange and CredentialExchange, each
// corresponding to one of the main phases of the negotiation process."
//
//   - POST /tn/start            <startNegotiationRequest strategy=… resource=…/>
//     → <startNegotiationResponse negotiation=…/>
//     ("StartNegotiation assigns a unique id to the negotiation process")
//   - POST /tn/policyExchange   <envelope negotiation=…><tnMessage…/></envelope>
//     for request/policy/continue messages
//   - POST /tn/credentialExchange  same envelope, for sequence/credential/
//     ack messages ("verifies the validity of the counterpart's
//     credential … then selects the next credential to be sent")
//   - GET  /tn/status?negotiation=… → <status done=… succeeded=… reason=…/>
//
// Each negotiation id maps to one controller Endpoint; idle sessions
// expire after MaxSessionAge.
type TNService struct {
	// Party is the controller identity the service negotiates as.
	Party *negotiation.Party
	// DB, when set, is the document store holding the party's
	// disclosure policies and credentials; StartNegotiation then
	// rebuilds the negotiating party from it for every session, exactly
	// as the paper's operation "opens the connection with [the] Oracle
	// database containing the disclosure policies and credentials of
	// the invoker" (§6.2). Party then only supplies identity, trust
	// anchors, keys and hooks.
	DB *store.Store
	// PartyReader, when set, is the read path used for the party reload —
	// typically a *cacher.Cache over DB, so N concurrent StartNegotiation
	// calls coalesce onto one store fetch per kind. When nil, reads go to
	// DB directly. Writes (resume tickets, session docs) always go to DB.
	PartyReader partydb.Reader
	// MaxSessionAge bounds idle session lifetime (default 5 minutes).
	MaxSessionAge time.Duration
	// MaxSessions bounds concurrently ACTIVE negotiations (default
	// 1024); finished sessions do not count and are retired after
	// DoneRetention.
	MaxSessions int
	// DoneRetention is how long a finished negotiation stays queryable
	// via /tn/status (default 30 seconds).
	DoneRetention time.Duration
	// Metrics collects the service's HTTP and session telemetry and backs
	// GET /metrics. NewTNService installs a fresh registry; set nil to
	// disable collection, or share one registry across services to expose
	// a single scrape endpoint.
	Metrics *telemetry.Registry
	// Logf reports operational events such as live-session eviction under
	// capacity pressure (default log.Printf).
	Logf func(format string, args ...any)
	// Debugf, when set, receives one key=value line per negotiation
	// message handled (session id, operation, message type, duration).
	Debugf func(format string, args ...any)
	// NewSessionID, when set, mints session ids in place of the default
	// 12 random bytes. internal/cluster installs a minter that draws ids
	// the local node owns on the hash ring, so a session's messages land
	// where it started without forwarding.
	NewSessionID func() (string, error)
	// OnSessionUpdate, when set, receives the encode method of each
	// session's suspended-state document (<tnSession>, reply cache
	// included) after a message is handled and BEFORE the reply is
	// released to the client. The hook runs under the session's lock, and
	// encode is valid only during the call. An error withholds the reply
	// and fails the exchange with a retryable 503, so a client holding
	// reply k implies the hook accepted state k — the invariant cluster
	// standby shipping needs for zero lost acked sessions. The context is
	// the request's.
	OnSessionUpdate func(ctx context.Context, id string, encode func(*xmldom.Writer)) error
	// SessionMissing, when set, answers an exchange whose session this
	// table does not (or no longer) hold, in place of the 404 fault.
	// internal/cluster installs a retryable 503: a session it routed here
	// may have migrated away before the handler ran, and the client must
	// retry to follow it rather than give the negotiation up.
	SessionMissing func(w http.ResponseWriter, id string)

	// mu guards the session table, every session's idle clock
	// (tnSession.lastUsed) and swept. A handler holding a session's own
	// lock may take mu (lastUse); mu is never held while a session's lock
	// is taken.
	mu       sync.Mutex
	sessions map[string]*tnSession
	// swept is when the whole table was last swept (sweep).
	swept time.Time
	// active counts sessions holding a capacity slot: created or resumed,
	// not yet completed/expired/evicted. The slot is released by retire(),
	// whose CAS guarantees exactly one release per session however many
	// paths (completion, sweep, eviction) race for it.
	active atomic.Int64

	// bound is what sessions start from: the party bound to Metrics and,
	// on the DB path, the snapshot decoded from the store at a summed
	// generation of the party kinds (sessionParty). partyMu serializes
	// the reloads that replace it; a session start whose generation,
	// Party and Metrics match reads it without a lock.
	partyMu sync.Mutex
	bound   atomic.Pointer[boundParty]
}

type tnSession struct {
	// endpoint drives the negotiation; it is dropped once done is set,
	// leaving outcome, the verdict /tn/status reports.
	endpoint *negotiation.Endpoint
	mu       sync.Mutex // one in-flight message per session
	lastUsed time.Time  // guarded by TNService.mu
	outcome  *negotiation.Outcome
	done     atomic.Bool
	// deactivated records that the session's capacity slot (and its
	// tn_sessions_active increment) has been released; see
	// TNService.retire.
	deactivated atomic.Bool

	// Reply cache (at-most-once exchange): the last envelope sequence
	// number applied and the exact response it produced. A duplicate
	// delivery — client retry after a lost response, or a network-level
	// duplicate — replays the cached bytes instead of advancing the
	// endpoint twice. One entry suffices because a client sends one
	// message at a time and only ever retries the newest. Guarded by mu.
	lastSeq         int64
	lastReplyStatus int
	lastReply       string
	// moved records that the session left the table for another node
	// (drained or released): a handler that looked it up before it left
	// must not advance this copy. Guarded by mu.
	moved bool
}

// NewTNService creates a service negotiating as party, collecting
// telemetry into a fresh registry.
func NewTNService(party *negotiation.Party) *TNService {
	return &TNService{
		Party:   party,
		Metrics: telemetry.NewRegistry(),
	}
}

// Register mounts the TN operations on mux under /tn/, plus /metrics
// (when the service has a registry) and /healthz.
func (s *TNService) Register(mux *http.ServeMux) {
	mux.HandleFunc("/tn/start", s.instrument("/tn/start", s.handleStart))
	mux.HandleFunc("/tn/policyExchange", s.instrument("/tn/policyExchange", s.exchangeHandler(policyPhase)))
	mux.HandleFunc("/tn/credentialExchange", s.instrument("/tn/credentialExchange", s.exchangeHandler(credentialPhase)))
	mux.HandleFunc("/tn/status", s.instrument("/tn/status", s.handleStatus))
	if s.Metrics != nil {
		mux.Handle("/metrics", s.Metrics.Handler())
	}
	mux.HandleFunc("/healthz", handleHealthz)
}

func (s *TNService) maxAge() time.Duration {
	if s.MaxSessionAge > 0 {
		return s.MaxSessionAge
	}
	return 5 * time.Minute
}

func (s *TNService) maxSessions() int {
	if s.MaxSessions > 0 {
		return s.MaxSessions
	}
	return 1024
}

func (s *TNService) doneRetention() time.Duration {
	if s.DoneRetention > 0 {
		return s.DoneRetention
	}
	return 30 * time.Second
}

// sweepEvery is the least time between two whole-table sweeps at session
// start: a quarter of the shorter session lifetime. A finished session
// is visited by about five sweeps over its retention, whatever the
// retention, and a stale one leaves the table within a quarter lifetime
// of going stale, or at its next lookup.
func (s *TNService) sweepEvery() time.Duration {
	return min(s.doneRetention(), s.maxAge()) / 4
}

func (s *TNService) handleStart(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeFault(w, http.StatusMethodNotAllowed, "method", "POST required")
		return
	}
	raw, err := ReadBody(r.Body, MaxBody)
	r.Body.Close()
	if err != nil {
		writeFault(w, http.StatusBadRequest, "parse", err.Error())
		return
	}
	strategy, ok, err := readStartRequest(raw)
	if err != nil {
		writeFault(w, http.StatusBadRequest, "parse", err.Error())
		return
	}
	if !ok {
		writeFault(w, http.StatusBadRequest, "schema", "expected <startNegotiationRequest>")
		return
	}
	if _, err := negotiation.ParseStrategy(strategy); err != nil {
		writeFault(w, http.StatusBadRequest, "strategy", err.Error())
		return
	}
	id, err := s.newSession()
	if err != nil {
		var ce *capacityError
		if errors.As(err, &ce) {
			// Honest backpressure: tell the client when capacity is
			// expected to free up instead of silently evicting live
			// negotiations beyond what the half-age policy allows.
			// Rounded up: a client retrying sooner would find the oldest
			// session not yet evictable.
			secs := max(1, (ce.retryAfter+time.Second-1)/time.Second)
			w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
			if m := s.Metrics; m != nil {
				m.Counter("tn_start_rejected_total", "reason", "capacity").Inc()
			}
		}
		writeFault(w, http.StatusServiceUnavailable, "capacity", err.Error())
		return
	}
	writeRaw(w, http.StatusOK, startResponseXML(id))
}

// capacityError reports MaxSessions pressure that half-age eviction could
// not relieve; retryAfter estimates when the oldest live session becomes
// evictable.
type capacityError struct {
	active     int
	retryAfter time.Duration
}

func (e *capacityError) Error() string {
	return fmt.Sprintf("wsrpc: %d concurrent negotiations", e.active)
}

// retire releases sess's capacity slot, reporting whether this caller is
// the one that retired it. Completion (exchangeHandler, under the
// session's lock only), expiry sweeps and capacity eviction (under the
// table lock) can all reach a session concurrently, and the CAS makes
// the release (and the tn_sessions_active decrement) happen exactly
// once, so the gauge can never underflow and a session is never
// double-retired.
func (s *TNService) retire(sess *tnSession) bool {
	if !sess.deactivated.CompareAndSwap(false, true) {
		return false
	}
	s.active.Add(-1)
	if m := s.Metrics; m != nil {
		m.Gauge("tn_sessions_active").Dec()
	}
	return true
}

// reserveActive claims one capacity slot, failing when the service is at
// MaxSessions. CAS instead of a blind Add keeps the bound exact under
// concurrent joins.
func (s *TNService) reserveActive() bool {
	max := int64(s.maxSessions())
	for {
		n := s.active.Load()
		if n >= max {
			return false
		}
		if s.active.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// admit puts a fresh controller session for party into the table under
// id and claims a capacity slot for it: the one path by which a new
// session enters the table. A session already holding id keeps it.
// Cleanup is clocked: a start sweeps the whole table once sweepEvery has
// passed since the last sweep, and at once, before evicting, when the
// service is at MaxSessions. Each eviction is logged once the table lock
// is released, since Logf is the caller's code.
func (s *TNService) admit(id string, party *negotiation.Party) error {
	evicted, err := s.enter(id, party)
	for _, e := range evicted {
		s.logf("wsrpc: evicted live negotiation %s idle=%s under session pressure (%d/%d active)",
			e.id, e.idle.Round(time.Millisecond), e.active, s.maxSessions())
	}
	return err
}

// enter is admit's work under the table lock; it returns the live
// sessions it evicted.
func (s *TNService) enter(id string, party *negotiation.Party) ([]eviction, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, held := s.sessions[id]; held {
		return nil, nil
	}
	now := time.Now()
	if now.Sub(s.swept) >= s.sweepEvery() {
		s.sweep(now)
	}
	var evicted []eviction
	if !s.reserveActive() {
		s.sweep(now)
		var wait time.Duration
		evicted, wait = s.evict(now)
		if !s.reserveActive() {
			return evicted, &capacityError{active: int(s.active.Load()), retryAfter: wait}
		}
	}
	s.put(id, &tnSession{endpoint: negotiation.NewController(party), lastUsed: now})
	if m := s.Metrics; m != nil {
		m.Counter("tn_sessions_created_total").Inc()
		m.Gauge("tn_sessions_active").Inc()
	}
	return evicted, nil
}

// put adds sess to the table under id (caller holds s.mu).
func (s *TNService) put(id string, sess *tnSession) {
	if s.sessions == nil {
		s.sessions = make(map[string]*tnSession)
	}
	s.sessions[id] = sess
}

// mintSessionID draws a fresh session id, via the NewSessionID hook
// when installed.
func (s *TNService) mintSessionID() (string, error) {
	if s.NewSessionID != nil {
		return s.NewSessionID()
	}
	var raw [12]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", err
	}
	var id [2 * len(raw)]byte
	hex.Encode(id[:], raw[:])
	return string(id[:]), nil
}

func (s *TNService) newSession() (string, error) {
	id, err := s.mintSessionID()
	if err != nil {
		return "", err
	}
	party, err := s.sessionParty()
	if err != nil {
		return "", err
	}
	if err := s.admit(id, party); err != nil {
		return "", err
	}
	return id, nil
}

// sessionParty prepares the negotiating identity for one session: the
// DB-backed reload of §6.2 when a store is attached, bound to the
// service's registry so endpoints record into it without mutating the
// caller's Party. The bound party is built once and shared by every
// session that starts from the same Party, Metrics and, on the DB path,
// store generation.
func (s *TNService) sessionParty() (*negotiation.Party, error) {
	if s.DB != nil {
		party, err := s.loadPartyCached()
		if err != nil {
			return nil, fmt.Errorf("wsrpc: load party from store: %w", err)
		}
		return party, nil
	}
	if s.Party.Metrics != nil || s.Metrics == nil {
		return s.Party, nil
	}
	if b := s.bound.Load(); b != nil && b.snap == nil && b.from == s.Party && b.metrics == s.Metrics {
		return b.party, nil
	}
	clone := *s.Party
	clone.Metrics = s.Metrics
	b := &boundParty{from: s.Party, metrics: s.Metrics, party: &clone}
	s.bound.Store(b)
	return b.party, nil
}

// boundParty is a party sessions negotiate as, with what it was built
// from: the service's Party and Metrics and, on the DB path, the store
// snapshot and the summed generation of the party kinds it was read at.
type boundParty struct {
	from    *negotiation.Party
	metrics *telemetry.Registry
	snap    *partydb.Snapshot
	gen     uint64
	party   *negotiation.Party
}

// partyKinds are the store kinds a party reload reads — the generation
// loadPartyCached compares and the invalidation scope of its snapshot.
var partyKinds = []string{partydb.KindCredential, partydb.KindPolicy, partydb.KindOntology}

// loadPartyCached returns the store-backed party for a session start,
// keyed by the summed per-kind generation of the kinds a party is built
// from: a Put/Delete of a credential, policy or ontology bumps that sum
// and forces a reload, so the paper's per-StartNegotiation database
// reload semantics are preserved without reparsing every policy and
// credential document for each of N concurrent joins — and, unlike a
// store-wide mutation counter, a resume-ticket or replicated-session
// write leaves the snapshot in place. A reload (partydb.Reload) decodes
// only the records that changed since the snapshot it replaces, and
// binds the party to Metrics once for every session that shares it.
func (s *TNService) loadPartyCached() (*negotiation.Party, error) {
	gen := s.DB.KindGeneration(partyKinds...)
	if b := s.bound.Load(); s.current(b, gen) {
		return b.party, nil
	}
	s.partyMu.Lock()
	defer s.partyMu.Unlock()
	prev := s.bound.Load()
	if s.current(prev, gen) {
		return prev.party, nil
	}
	var reader partydb.Reader = s.DB
	if s.PartyReader != nil {
		reader = s.PartyReader
	}
	var prevSnap *partydb.Snapshot
	if prev != nil {
		prevSnap = prev.snap
	}
	template := *s.Party
	if template.Metrics == nil {
		template.Metrics = s.Metrics
	}
	snap, err := partydb.Reload(reader, &template, prevSnap)
	if err != nil {
		return nil, err
	}
	if m := s.Metrics; m != nil {
		m.Counter("tn_party_reloads_total").Inc()
	}
	b := &boundParty{from: s.Party, metrics: s.Metrics, snap: snap, gen: gen, party: snap.Party()}
	s.bound.Store(b)
	return b.party, nil
}

// current reports whether b is the DB-backed party of the service's
// Party and Metrics at the summed party-kind generation gen.
func (s *TNService) current(b *boundParty, gen uint64) bool {
	return b != nil && b.snap != nil && b.gen == gen && b.from == s.Party && b.metrics == s.Metrics
}

// stale reports whether a session has outlived its lifetime: unfinished
// past MaxSessionAge, finished past the (shorter) DoneRetention.
func (s *TNService) stale(sess *tnSession, now time.Time) bool {
	cutoff := now.Add(-s.maxAge())
	if sess.done.Load() {
		return sess.lastUsed.Before(now.Add(-s.doneRetention())) || sess.lastUsed.Before(cutoff)
	}
	return sess.lastUsed.Before(cutoff)
}

// retireStale accounts for one stale session just removed from the
// table. An unfinished session can complete concurrently
// (exchangeHandler holds only sess.mu, never the table lock), so
// accounting routes through retire(): whichever of sweep and completion
// wins the CAS releases the capacity slot — sweep then counts "expired",
// and the loser's copy is an ordinary "retired" map cleanup of a
// completed session. This keeps created == completed + expired + evicted
// exact.
func (s *TNService) retireStale(sess *tnSession) {
	expired := s.retire(sess)
	if m := s.Metrics; m != nil {
		reason := "retired"
		if expired {
			reason = "expired"
		}
		m.Counter("tn_sessions_swept_total", "reason", reason).Inc()
	}
}

// sweep drops every stale session from the table (caller holds s.mu):
// unfinished past MaxSessionAge, finished past DoneRetention. It
// retires them in place, and the registry it counts them in never calls
// back into the service.
func (s *TNService) sweep(now time.Time) {
	s.swept = now
	for id, sess := range s.sessions {
		if s.stale(sess, now) {
			delete(s.sessions, id)
			s.retireStale(sess)
		}
	}
}

// eviction is a live session evict removed, with what its log line
// reports.
type eviction struct {
	id     string
	idle   time.Duration
	active int64
}

// evict relieves session pressure (caller holds s.mu): while the service
// is at MaxSessions, the live session idle longest is evicted if it has
// been idle for more than half of MaxSessionAge — the deployment gets a
// log line for each instead of silent capacity errors, while fresh
// negotiations are never sacrificed. The half-age floor also means an
// evicted session cannot be mid-message: handlers refresh lastUsed on
// lookup. evict returns the evicted sessions and how long until the
// oldest live session left becomes evictable, the capacity error's
// Retry-After estimate.
func (s *TNService) evict(now time.Time) (evicted []eviction, wait time.Duration) {
	half := s.maxAge() / 2
	for s.active.Load() >= int64(s.maxSessions()) {
		id, oldest := s.oldestLive()
		if oldest == nil {
			return evicted, half
		}
		idle := now.Sub(oldest.lastUsed)
		if idle <= half {
			return evicted, half - idle
		}
		delete(s.sessions, id)
		if s.retire(oldest) {
			evicted = append(evicted, eviction{id, idle, s.active.Load()})
			if m := s.Metrics; m != nil {
				m.Counter("tn_sessions_swept_total", "reason", "evicted").Inc()
			}
		} else if m := s.Metrics; m != nil {
			// Completed since the scan (completion holds only the
			// session's lock): an ordinary retirement, already counted
			// as completed.
			m.Counter("tn_sessions_swept_total", "reason", "retired").Inc()
		}
	}
	return evicted, 0
}

// oldestLive returns the unfinished session idle longest and its id, or
// nil when there is none (caller holds s.mu).
func (s *TNService) oldestLive() (string, *tnSession) {
	var (
		oldestID string
		oldest   *tnSession
	)
	for id, sess := range s.sessions {
		if !sess.done.Load() && (oldest == nil || sess.lastUsed.Before(oldest.lastUsed)) {
			oldestID, oldest = id, sess
		}
	}
	return oldestID, oldest
}

// session looks up id, refreshing its idle clock.
func (s *TNService) session(id string) *tnSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	sess := s.held(id, now)
	if sess != nil {
		sess.lastUsed = now
	}
	return sess
}

// held returns session id, nil when the table does not hold it (caller
// holds s.mu). Expiry is enforced here as well as by the clocked sweeps:
// a stale session must read as gone the moment its lifetime is over, not
// when a sweep next visits it, so held retires it on the spot.
func (s *TNService) held(id string, now time.Time) *tnSession {
	sess := s.sessions[id]
	if sess != nil && s.stale(sess, now) {
		delete(s.sessions, id)
		s.retireStale(sess)
		return nil
	}
	return sess
}

// phaseKind partitions message types over the two exchange operations.
type phaseKind int

const (
	policyPhase phaseKind = iota
	credentialPhase
)

func phaseOf(t negotiation.MsgType) phaseKind {
	switch t {
	case negotiation.MsgRequest, negotiation.MsgPolicy, negotiation.MsgContinue:
		return policyPhase
	default:
		return credentialPhase
	}
}

// countBadEnvelope records a rejected envelope — undecodable schema,
// malformed sequence number, or a corrupt suspended-session record.
func (s *TNService) countBadEnvelope() {
	if m := s.Metrics; m != nil {
		m.Counter("tn_bad_envelope_total").Inc()
	}
}

func (s *TNService) exchangeHandler(phase phaseKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeFault(w, http.StatusMethodNotAllowed, "method", "POST required")
			return
		}
		raw, err := ReadBody(r.Body, MaxBody)
		r.Body.Close()
		if err != nil {
			writeFault(w, http.StatusBadRequest, "parse", err.Error())
			return
		}
		env, err := DecodeEnvelope(raw)
		if err != nil {
			writeFault(w, http.StatusBadRequest, "parse", err.Error())
			return
		}
		s.exchange(w, r, phase, env)
	}
}

// ExchangeHandler returns the handler of exchange route
// ("/tn/policyExchange" or "/tn/credentialExchange") for a POST whose
// body its caller has already read and decoded into env
// (DecodeEnvelope). The cluster router decodes each exchange body to
// route it, and hands the envelope over here, so the body is read and
// decoded once. Requests count in route's HTTP series, as those of the
// handler Register mounts do.
func (s *TNService) ExchangeHandler(route string) func(w http.ResponseWriter, r *http.Request, env *Envelope) {
	phase := policyPhase
	if route == "/tn/credentialExchange" {
		phase = credentialPhase
	}
	m := newMeter(s.Metrics, route)
	return func(w http.ResponseWriter, r *http.Request, env *Envelope) {
		m.serve(w, r, func(w http.ResponseWriter, r *http.Request) { s.exchange(w, r, phase, env) })
	}
}

// exchange serves one exchange operation for the decoded envelope env.
func (s *TNService) exchange(w http.ResponseWriter, r *http.Request, phase phaseKind, env *Envelope) {
	if err := env.Err; err != nil {
		s.countBadEnvelope()
		code := "schema"
		var werr *Error
		if errors.As(err, &werr) && werr.Code != "" {
			code = werr.Code
		}
		writeFault(w, http.StatusBadRequest, code, err.Error())
		return
	}
	id, seq, msg := env.ID, env.Seq, env.Message
	// Terminal messages (success/fail) may land on either operation;
	// other types must match their phase's operation.
	if msg.Type != negotiation.MsgSuccess && msg.Type != negotiation.MsgFail && phaseOf(msg.Type) != phase {
		writeFault(w, http.StatusBadRequest, "phase",
			fmt.Sprintf("message %s does not belong to this operation", msg.Type))
		return
	}
	sess := s.session(id)
	if sess == nil {
		s.sessionMissing(w, id)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.moved {
		s.sessionMissing(w, id)
		return
	}
	if seq > 0 && seq == sess.lastSeq {
		// Duplicate delivery (client retry after a lost response, or a
		// duplicated message): replay the cached response unchanged.
		// The replay must clear the standby gate too — the retry may
		// exist precisely because the first ship attempt failed and
		// withheld the reply.
		if err := s.shipSessionUpdate(r.Context(), id, sess); err != nil {
			writeShipFault(w, err)
			return
		}
		if m := s.Metrics; m != nil {
			m.Counter("tn_replays_total").Inc()
		}
		if s.Debugf != nil {
			s.Debugf("tn-message session=%s op=%s type=%s seq=%d replayed", id, phase, msg.Type, seq)
		}
		writeRaw(w, sess.lastReplyStatus, sess.lastReply)
		return
	}
	if sess.done.Load() {
		writeFault(w, http.StatusConflict, "done", "negotiation already finished")
		return
	}
	start := time.Now()
	reply, err := sess.endpoint.Handle(msg)
	if s.Debugf != nil {
		// Built only here: boxing the arguments costs allocations on
		// every message.
		s.Debugf("tn-message session=%s op=%s type=%s dur=%s err=%v",
			id, phase, msg.Type, time.Since(start).Round(time.Microsecond), err != nil)
	}
	if sess.endpoint.Done() {
		// Keep the verdict and drop the endpoint: a finished session
		// stays in the table for DoneRetention to answer /tn/status
		// and replays, and the endpoint would pin every request body
		// it parsed.
		sess.outcome = verdict(sess.endpoint.Outcome())
		sess.endpoint = nil
		sess.done.Store(true)
		// retire() may lose to a concurrent expiry sweep or capacity
		// eviction that already released this session's slot; the
		// completed counter follows the same winner so a session is
		// counted exactly once across completed/expired/evicted.
		if s.retire(sess) {
			result := "failure"
			if sess.outcome != nil && sess.outcome.Succeeded {
				result = "success"
			}
			if m := s.Metrics; m != nil {
				m.Counter("tn_sessions_completed_total", "result", result).Inc()
			}
		}
	}
	status, respBody := http.StatusOK, ""
	switch {
	case err != nil:
		status = http.StatusInternalServerError
		respBody = (&Fault{Code: "internal", Detail: err.Error()}).XML()
	case reply == nil:
		// Terminal message consumed; acknowledge with the outcome.
		respBody = statusXML(id, sess.done.Load(), sess.outcome)
	default:
		respBody = envelopeXML(id, 0, reply)
	}
	if seq > 0 {
		sess.lastSeq, sess.lastReplyStatus, sess.lastReply = seq, status, respBody
	}
	// Standby gate: the updated state (endpoint tree + reply cache)
	// must be accepted by the hook before the reply leaves. On
	// failure the client retries the same sequence number and lands
	// on the replay path above, which re-attempts the ship.
	if err := s.shipSessionUpdate(r.Context(), id, sess); err != nil {
		writeShipFault(w, err)
		return
	}
	writeRaw(w, status, respBody)
}

// sessionMissing answers an exchange for a session the table does not
// hold: through the SessionMissing hook when installed, else 404.
func (s *TNService) sessionMissing(w http.ResponseWriter, id string) {
	if s.SessionMissing != nil {
		s.SessionMissing(w, id)
		return
	}
	writeFault(w, http.StatusNotFound, "negotiation", "unknown or expired negotiation "+id)
}

// verdict keeps what a finished session reports on /tn/status. The
// credentials an outcome lists, and any reason quoted from a peer's
// message, are substrings of the request bodies they were parsed from
// (see package xmldom), so holding the whole outcome would pin those
// bodies for DoneRetention.
func verdict(out *negotiation.Outcome) *negotiation.Outcome {
	if out == nil {
		return nil
	}
	return &negotiation.Outcome{Succeeded: out.Succeeded, Resource: strings.Clone(out.Resource), Reason: strings.Clone(out.Reason)}
}

// shipSessionUpdate passes the session's suspended-state document to
// the OnSessionUpdate hook (caller holds sess.mu). Sessions with nothing
// to snapshot — no message processed yet, or already finished — ship
// nothing: a finished negotiation's outcome is in the client's hands, so
// its loss costs no acked state.
func (s *TNService) shipSessionUpdate(ctx context.Context, id string, sess *tnSession) error {
	ship := s.OnSessionUpdate
	if ship == nil || !sess.resumable() {
		return nil
	}
	used := s.lastUse(sess)
	return ship(ctx, id, func(w *xmldom.Writer) { sess.encodeSuspended(w, id, used) })
}

// lastUse reads sess's idle clock, which the table lock guards.
func (s *TNService) lastUse(sess *tnSession) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sess.lastUsed
}

// writeShipFault reports a failed standby ship as honest backpressure:
// retryable, with the reply withheld so the acked-implies-shipped
// invariant holds.
func writeShipFault(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeFault(w, http.StatusServiceUnavailable, "standby", err.Error())
}

// writeRaw emits a pre-serialized XML response (the replay path must be
// byte-identical to the original).
func writeRaw(w http.ResponseWriter, status int, body string) {
	SetContentType(w.Header())
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	io.WriteString(w, body)
}

func (s *TNService) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("negotiation")
	sess := s.session(id)
	if sess == nil {
		writeFault(w, http.StatusNotFound, "negotiation", "unknown or expired negotiation "+id)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	writeRaw(w, http.StatusOK, statusXML(id, sess.done.Load(), sess.outcome))
}

// Sessions sweeps the table and returns the number of sessions it still
// holds (monitoring).
func (s *TNService) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweep(time.Now())
	return len(s.sessions)
}
