package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/telemetry"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xmldom"
)

// Config wires one cluster node.
type Config struct {
	// Name is the node's ring identity (must be unique in the cluster).
	Name string
	// Ring is the shared membership view. Nodes of one cluster may share
	// a *Ring in-process (tests) or maintain equal copies (deployments);
	// routing only needs every node to agree on the member set.
	Ring *Ring
	// TN is the local trust-negotiation service; NewNode installs its
	// cluster hooks (owned-id minting, per-message standby shipping, and
	// a retryable answer for a session that moved on).
	TN *wsrpc.TNService
	// Transport carries every cluster RPC (forwarding, standby shipping,
	// replication) through the hardened client path: per-call deadlines,
	// retries with backoff, and per-endpoint breakers.
	Transport *wsrpc.Transport
	// Metrics receives the node's cluster telemetry (nil disables).
	Metrics *telemetry.Registry
	// Keys seals standby ships; all nodes of a cluster share the key pair,
	// standing in for a deployment's cluster-internal CA.
	Keys *pki.KeyPair
	// Redirect answers misrouted joins with 307 + the owner's URL instead
	// of forwarding server-side. Clients following redirects spare the
	// cluster a proxy hop per message.
	Redirect bool
	// SyncRepl gates every store commit acknowledgment on a follower's
	// acknowledgment, so promoting the most advanced survivor loses no
	// acked write.
	SyncRepl bool
	// MaxReplLog caps the in-memory replication log; followers further
	// behind than the cap catch up from a store snapshot (default 4096).
	MaxReplLog int
	// Capacity bounds concurrently serviced TN messages on this node
	// (0 = unlimited). With ServiceFloor it forms the benchmark capacity
	// model; in deployments it is per-node admission control.
	Capacity int
	// ServiceFloor is a minimum per-message service time enforced while
	// holding a capacity slot, making per-node throughput Capacity/Floor
	// even when the handler itself is faster (benchmark scaling model).
	ServiceFloor time.Duration
	// Logf reports operational events (default: discard).
	Logf func(format string, args ...any)
}

// Node is one member of a sharded TN cluster: it owns the sessions the
// ring assigns it, keeps standby snapshots for its predecessors'
// sessions, and participates in store replication as leader or follower.
type Node struct {
	cfg       Config
	ring      *Ring
	tn        *wsrpc.TNService
	transport *wsrpc.Transport
	metrics   *telemetry.Registry
	keys      *pki.KeyPair

	mu      sync.Mutex
	db      *store.Store
	peers   map[string]string // node name → base URL
	standby map[string]standbyDoc
	ships   int // standby inserts since the last expiry sweep

	gate chan struct{} // capacity semaphore (nil = unlimited)

	ctxMu  sync.Mutex
	runCtx context.Context

	// applyMu serializes follower-side application of replicated entries
	// and snapshots with the applied-position bookkeeping.
	applyMu sync.Mutex
	repl    replState
}

// standbyDoc is one unclaimed standby ship: the sealed wire form as
// received, the last message sequence its session document covers, and
// when it arrived.
type standbyDoc struct {
	xml string
	seq int64
	at  time.Time
}

// NewNode builds a node and installs the TN cluster hooks. The
// replicated store is attached separately (AttachDB) because its
// OnCommit option must point at the node being constructed:
//
//	n := cluster.NewNode(cfg)
//	db := store.NewWithOptions(store.Options{OnCommit: n.OnCommit})
//	n.AttachDB(db)
func NewNode(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: node needs a name")
	}
	if cfg.Ring == nil {
		return nil, fmt.Errorf("cluster: node %s needs a ring", cfg.Name)
	}
	if cfg.TN == nil {
		return nil, fmt.Errorf("cluster: node %s needs a TN service", cfg.Name)
	}
	if cfg.Transport == nil {
		cfg.Transport = &wsrpc.Transport{}
	}
	n := &Node{
		cfg:       cfg,
		ring:      cfg.Ring,
		tn:        cfg.TN,
		transport: cfg.Transport,
		metrics:   cfg.Metrics,
		keys:      cfg.Keys,
		peers:     make(map[string]string),
		standby:   make(map[string]standbyDoc),
	}
	if cfg.Capacity > 0 {
		n.gate = make(chan struct{}, cfg.Capacity)
	}
	n.repl.followers = make(map[string]uint64)
	n.repl.sendMu = make(map[string]*sync.Mutex)
	n.tn.NewSessionID = n.mintOwnedID
	n.tn.OnSessionUpdate = n.shipStandby
	n.tn.SessionMissing = n.sessionUnavailable
	return n, nil
}

// Name returns the node's ring identity.
func (n *Node) Name() string { return n.cfg.Name }

// Ring returns the shared membership ring (for the host process to
// mutate on membership changes, e.g. removing itself before a drain).
func (n *Node) Ring() *Ring { return n.ring }

// AttachDB attaches the replicated document store. The store should have
// been built with Options.OnCommit = n.OnCommit so leader commits enter
// the replication log.
func (n *Node) AttachDB(db *store.Store) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.db = db
}

// DB returns the attached replicated store (nil before AttachDB).
func (n *Node) DB() *store.Store {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.db
}

// SetPeer records (or updates) the base URL for a peer node.
func (n *Node) SetPeer(name, baseURL string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[name] = baseURL
}

// peerURL resolves a node name to its base URL ("" when unknown).
func (n *Node) peerURL(name string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peers[name]
}

// Start launches the node's background replication pusher; ctx cancels
// it. Cluster-initiated RPCs (sync replication pushes from commit hooks)
// also run under this context. Call before serving traffic.
func (n *Node) Start(ctx context.Context) {
	n.ctxMu.Lock() //lint:allow nakedlock short set; replication loop launch below runs unlocked
	n.runCtx = ctx
	n.ctxMu.Unlock()
	go n.replLoop(ctx)
}

// runContext returns the Start context (nil before Start).
func (n *Node) runContext() context.Context {
	n.ctxMu.Lock()
	defer n.ctxMu.Unlock()
	return n.runCtx
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Node) maxReplLog() int {
	if n.cfg.MaxReplLog > 0 {
		return n.cfg.MaxReplLog
	}
	return 4096
}

// mintOwnedID draws random session ids until one lands on this node's
// ring arc, so a session's messages are served where it started without
// a forwarding hop. With k nodes a draw hits the local arc with
// probability ~1/k; 128 draws make failure astronomically unlikely.
// Each draw is encoded on the stack and looked up as a string the ring
// keeps no reference to, so only the id returned is allocated.
func (n *Node) mintOwnedID() (string, error) {
	for i := 0; i < 128; i++ {
		var raw [12]byte
		if _, err := rand.Read(raw[:]); err != nil {
			return "", err
		}
		var id [2 * len(raw)]byte
		hex.Encode(id[:], raw[:])
		owner := n.ring.Owner(string(id[:]))
		if owner == "" || owner == n.cfg.Name {
			return string(id[:]), nil
		}
	}
	return "", fmt.Errorf("cluster: node %s could not mint an owned session id in 128 draws", n.cfg.Name)
}

// shipStandby is the TNService OnSessionUpdate hook: after each handled
// message — before the reply is released — the session's suspended state
// ships to its ring successor. An error here withholds the reply, so a
// client holding reply k implies the standby holds state ≥ k: the
// invariant that makes failover adoption lossless for acked traffic.
func (n *Node) shipStandby(ctx context.Context, id string, encode func(*xmldom.Writer)) error {
	target := n.ring.Successor(id)
	if target == "" || target == n.cfg.Name {
		return nil // single-node ring: no standby to keep
	}
	return n.ship(ctx, target, id, encode)
}

// ship seals the session document encode writes and posts it to
// target's standby table. Ships are sealed with the cluster key: the
// receiving node refuses to hold — and, later, to adopt — a snapshot
// the cluster did not vouch for, so a forged POST cannot hijack a
// negotiation.
func (n *Node) ship(ctx context.Context, target, id string, encode func(*xmldom.Writer)) error {
	base := n.peerURL(target)
	if base == "" {
		n.countShip("error")
		return fmt.Errorf("cluster: no address for standby target %s", target)
	}
	ship, err := n.seal(encode)
	if err != nil {
		n.countShip("error")
		return fmt.Errorf("cluster: standby ship of %s to %s: %w", id, target, err)
	}
	_, err = n.transport.CallBody(ctx, "POST", base, "/cluster/standby", "", ship, true, checkAck)
	if err != nil {
		n.countShip("error")
		return fmt.Errorf("cluster: standby ship of %s to %s: %w", id, target, err)
	}
	n.countShip("ok")
	return nil
}

// checkAck accepts a standby POST's reply: a <standbyAck>.
func checkAck(r *xmldom.Reader) error {
	if r.Name() != "standbyAck" {
		return fmt.Errorf("cluster: standby reply <%s>, want <standbyAck>", r.Name())
	}
	return nil
}

func (n *Node) countShip(result string) {
	if m := n.metrics; m != nil {
		m.Counter("cluster_standby_ships_total", "result", result).Inc()
	}
}

// putStandby holds the sealed ship xml of session id, whose document
// covers messages up to seq, and returns the ship the table holds
// afterwards. A held copy covering a later message stays: ships are
// retried, so an attempt that timed out can land after its retry, or
// after the next message's ship, and must not roll the standby back
// behind a reply the client holds. An equal seq replaces the held copy,
// since a replay re-ships the same state. Every 256 inserts expired
// ships are swept, bounding the table under churn.
func (n *Node) putStandby(id, xml string, seq int64) string {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	if held, ok := n.standby[id]; ok && held.seq > seq {
		return held.xml
	}
	// A parsed id is a substring of the whole request body (see package
	// xmldom); the table outlives that request.
	n.standby[strings.Clone(id)] = standbyDoc{xml: xml, seq: seq, at: now}
	n.ships++
	if n.ships%256 == 0 {
		cutoff := now.Add(-standbyTTL)
		for k, v := range n.standby {
			if v.at.Before(cutoff) {
				delete(n.standby, k)
			}
		}
	}
	return xml
}

// takeStandby removes, re-opens, and unwraps the standby ship for id, if
// one is held and still fresh, returning its session document and last
// sequence. The seal is opened again at the point of use — not just at
// POST ingress — so the table itself is never trusted: the MAC and
// expiry travel with the snapshot.
func (n *Node) takeStandby(id string) (string, int64, bool) {
	n.mu.Lock() //lint:allow nakedlock the open below must run outside the lock
	d, ok := n.standby[id]
	if ok {
		delete(n.standby, id)
	}
	n.mu.Unlock()
	if !ok || time.Since(d.at) > standbyTTL {
		return "", 0, false
	}
	return n.openStandby(d.xml, id)
}

// openStandby opens a standby ship of session id about to become a live
// session, counting and logging a refusal, and returns its document and
// last sequence. Adoption keys a session by the document's own id, so a
// copy of another session is refused.
func (n *Node) openStandby(ship, id string) (string, int64, bool) {
	doc, got, seq, err := n.shipHead(ship)
	if err == nil && got != id {
		err = fmt.Errorf("cluster: standby copy of session %s held for %s", got, id)
	}
	if err != nil {
		n.rejectStandby(err)
		n.logf("cluster: refusing standby snapshot %s: %v", id, err)
		return "", 0, false
	}
	return doc, seq, true
}

// StandbyCount reports held, unclaimed standby snapshots (monitoring).
func (n *Node) StandbyCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.standby)
}
