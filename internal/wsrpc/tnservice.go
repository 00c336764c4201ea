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

	shardOnce sync.Once
	shards    []*sessionShard
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

// sessionShard is one lock stripe of the session table.
type sessionShard struct {
	mu sync.Mutex
	m  map[string]*tnSession
}

// sessionShards is the number of lock stripes the session table is split
// into. Every session id is hashed to one stripe, so concurrent joins on
// different stripes never contend on a lock. 16 is sized for tens of
// concurrent joiners: the probability of two of k simultaneous requests
// colliding on a stripe stays low while the per-stripe sweep cost stays
// trivial.
const sessionShards = 16

// shardTable lazily builds the stripe array.
func (s *TNService) shardTable() []*sessionShard {
	s.shardOnce.Do(func() {
		s.shards = make([]*sessionShard, sessionShards)
		for i := range s.shards {
			s.shards[i] = &sessionShard{m: make(map[string]*tnSession)}
		}
	})
	return s.shards
}

// shard maps a session id to its stripe (FNV-1a over the id).
func (s *TNService) shard(id string) *sessionShard {
	shards := s.shardTable()
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return shards[h%uint32(len(shards))]
}

type tnSession struct {
	// endpoint drives the negotiation; it is dropped once done is set,
	// leaving outcome, the verdict /tn/status reports.
	endpoint *negotiation.Endpoint
	mu       sync.Mutex // one in-flight message per session
	lastUsed time.Time
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
			w.Header().Set("Retry-After", strconv.Itoa(int(ce.retryAfter/time.Second)))
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

// capacityRetry estimates how long until the oldest live session
// crosses the half-age eviction threshold.
func (s *TNService) capacityRetry() time.Duration {
	var oldest time.Time
	for _, sh := range s.shardTable() {
		if t := sh.oldestLive(); !t.IsZero() && (oldest.IsZero() || t.Before(oldest)) {
			oldest = t
		}
	}
	wait := s.maxAge() / 2
	if !oldest.IsZero() {
		wait = time.Until(oldest.Add(s.maxAge() / 2))
	}
	if wait < time.Second {
		wait = time.Second
	}
	return wait
}

// put inserts a session into the stripe.
func (sh *sessionShard) put(id string, sess *tnSession) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.m[id] = sess
}

// oldestLive returns the lastUsed time of the shard's oldest unfinished
// session (zero when it has none).
func (sh *sessionShard) oldestLive() time.Time {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var oldest time.Time
	for _, sess := range sh.m {
		if sess.done.Load() {
			continue
		}
		if oldest.IsZero() || sess.lastUsed.Before(oldest) {
			oldest = sess.lastUsed
		}
	}
	return oldest
}

// retire releases sess's capacity slot, reporting whether this caller is
// the one that retired it. Completion (exchangeHandler), expiry sweeps
// and capacity eviction can all reach a session concurrently — under the
// striped table even from different callers at once — and the CAS makes
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

// admit claims a capacity slot for a new session in stripe sh, the one
// admission path into the session table. Amortized cleanup: each new
// session sweeps only its own stripe, and the full-table sweep and
// eviction are reserved for capacity pressure.
func (s *TNService) admit(sh *sessionShard) error {
	s.sweepShard(sh)
	if s.reserveActive() {
		return nil
	}
	for _, other := range s.shardTable() {
		s.sweepShard(other)
	}
	s.evictForCapacity()
	if !s.reserveActive() {
		return &capacityError{active: int(s.active.Load()), retryAfter: s.capacityRetry()}
	}
	return nil
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
	sh := s.shard(id)
	if err := s.admit(sh); err != nil {
		return "", err
	}
	sh.put(id, &tnSession{
		endpoint: negotiation.NewController(party),
		lastUsed: time.Now(),
	})
	if m := s.Metrics; m != nil {
		m.Counter("tn_sessions_created_total").Inc()
		m.Gauge("tn_sessions_active").Inc()
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

// retireStale accounts for one stale session already removed from its
// stripe, reporting whether it counted as an expiry. An unfinished
// session can complete concurrently (exchangeHandler holds only sess.mu,
// never the stripe lock), so accounting routes through retire():
// whichever of sweep and completion wins the CAS releases the capacity
// slot — sweep then counts "expired", and the loser's copy is an
// ordinary "retired" map cleanup of a completed session. This keeps
// created == completed + expired + evicted exact.
func (s *TNService) retireStale(sess *tnSession) bool {
	expired := s.retire(sess)
	if m := s.Metrics; m != nil {
		reason := "retired"
		if expired {
			reason = "expired"
		}
		m.Counter("tn_sessions_swept_total", "reason", reason).Inc()
	}
	return expired
}

// sweepShard drops one stripe's stale sessions and returns how many
// expired (unfinished past MaxSessionAge) vs. retired (finished past
// DoneRetention).
func (s *TNService) sweepShard(sh *sessionShard) (expired, retired int) {
	now := time.Now()
	var stale []*tnSession
	sh.mu.Lock() //lint:allow nakedlock retireStale below must run outside the stripe lock; see its comment
	for id, sess := range sh.m {
		if s.stale(sess, now) {
			delete(sh.m, id)
			stale = append(stale, sess)
		}
	}
	sh.mu.Unlock()
	// retireStale touches the shared active counter and gauge; running it
	// after unlocking keeps stripe critical sections map-only.
	for _, sess := range stale {
		if s.retireStale(sess) {
			expired++
		} else {
			retired++
		}
	}
	return expired, retired
}

// evictForCapacity relieves session pressure: when the table is at
// MaxSessions, live sessions idle for more than half of MaxSessionAge
// are evicted, oldest first, each with a log line — the deployment gets
// signal instead of silent capacity errors, while fresh negotiations are
// never sacrificed. The half-age floor also means an evicted session
// cannot be mid-message: handlers refresh lastUsed on lookup.
//
// The globally-oldest candidate is found by scanning stripes one lock at
// a time, then re-verified under its own stripe lock before removal — it
// may have completed, been swept, or been refreshed in between. A failed
// re-verify just rescans; the candidate that invalidated itself can no
// longer be returned, so the loop terminates.
func (s *TNService) evictForCapacity() {
	idleCutoff := time.Now().Add(-s.maxAge() / 2)
	max := int64(s.maxSessions())
	for s.active.Load() >= max {
		sh, id, oldest := s.oldestIdle(idleCutoff)
		if oldest == nil {
			return
		}
		if !sh.remove(id, oldest, idleCutoff) {
			continue
		}
		if s.retire(oldest) {
			s.logf("wsrpc: evicted live negotiation %s idle=%s under session pressure (%d/%d active)",
				id, time.Since(oldest.lastUsed).Round(time.Millisecond), s.active.Load(), s.maxSessions())
			if m := s.Metrics; m != nil {
				m.Counter("tn_sessions_swept_total", "reason", "evicted").Inc()
			}
		} else if m := s.Metrics; m != nil {
			// Completed between the scan and the removal: an ordinary
			// retirement, already counted as completed.
			m.Counter("tn_sessions_swept_total", "reason", "retired").Inc()
		}
	}
}

// oldestIdle scans all stripes for the oldest unfinished session idle
// since before cutoff, returning its stripe, id and session (nil when no
// stripe has one).
func (s *TNService) oldestIdle(cutoff time.Time) (*sessionShard, string, *tnSession) {
	var (
		bestShard *sessionShard
		bestID    string
		best      *tnSession
		bestUsed  time.Time
	)
	for _, sh := range s.shardTable() {
		sh.mu.Lock() //lint:allow nakedlock per-stripe scan inside a loop; defer would hold the lock across stripes
		for id, sess := range sh.m {
			if sess.done.Load() || !sess.lastUsed.Before(cutoff) {
				continue
			}
			if best == nil || sess.lastUsed.Before(bestUsed) {
				bestShard, bestID, best, bestUsed = sh, id, sess, sess.lastUsed
			}
		}
		sh.mu.Unlock()
	}
	return bestShard, bestID, best
}

// remove deletes id from the stripe iff it still maps to sess and sess
// is still an eviction candidate (unfinished, idle past cutoff).
func (sh *sessionShard) remove(id string, sess *tnSession, cutoff time.Time) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.m[id]
	if !ok || cur != sess || cur.done.Load() || !cur.lastUsed.Before(cutoff) {
		return false
	}
	delete(sh.m, id)
	return true
}

// session looks up id, refreshing its idle clock. Expiry is enforced
// lazily here as well as by the sweeps: amortized per-stripe sweeping
// means a stale session may still sit in an untouched stripe, and it
// must read as gone the moment its lifetime is over, not when a sweep
// happens to visit it.
func (s *TNService) session(id string) *tnSession {
	sh := s.shard(id)
	now := time.Now()
	var stale bool
	sh.mu.Lock() //lint:allow nakedlock retireStale below must run outside the stripe lock; see its comment
	sess := sh.m[id]
	if sess != nil {
		if stale = s.stale(sess, now); stale {
			delete(sh.m, id)
		} else {
			sess.lastUsed = now
		}
	}
	sh.mu.Unlock()
	if stale {
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
	used := s.lastUse(id, sess)
	return ship(ctx, id, func(w *xmldom.Writer) { sess.encodeSuspended(w, id, used) })
}

// lastUse reads the idle clock of session id, which its stripe's lock
// guards.
func (s *TNService) lastUse(id string, sess *tnSession) time.Time {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
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

// Sessions returns the number of live sessions (monitoring).
func (s *TNService) Sessions() int {
	n := 0
	for _, sh := range s.shardTable() {
		s.sweepShard(sh)
		sh.mu.Lock() //lint:allow nakedlock per-stripe length inside a loop; defer would hold the lock across stripes
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
