package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xmldom"
)

// Store replication: the leader ships committed WAL entries — in the
// store's own CRC-framed segment encoding — to every follower, each of
// which applies a strict prefix of the leader's log. Positions are
// global log offsets that survive leader changes because promotion
// always picks the most advanced reachable survivor: its applied prefix
// is a superset of every other follower's, so numbering simply continues
// where the old leader's log left off. Epochs fence deposed leaders; a
// follower too far behind the leader's trimmed in-memory log catches up
// from a full store snapshot instead.
//
// Positions are only comparable within one lineage — the epoch of the
// leader whose log a prefix follows. A deposed leader's last, unacked
// window can still land on a follower after the promotion, at positions
// the new leader numbers afresh; such a follower reports a position
// that looks current but holds different entries. So a follower applies
// windows only onto an empty prefix or one of the sender's lineage, the
// leader resyncs every other follower from a snapshot, and promotion
// ranks survivors by lineage before position.

// replState is one node's view of the replicated log.
type replState struct {
	leader atomic.Bool
	epoch  atomic.Uint64

	mu sync.Mutex
	// base is the global position of log[0]; base+len(log) is the head.
	base uint64
	log  []store.Entry
	// applied is the length of the global log prefix applied to the
	// local store (leader: always the head).
	applied uint64
	// lineage is the epoch of the leader whose log the applied prefix
	// follows (a leader's own epoch once promoted).
	lineage   uint64
	followers map[string]uint64
	sendMu    map[string]*sync.Mutex
}

func (r *replState) head() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base + uint64(len(r.log))
}

func (r *replState) appliedPos() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

func (r *replState) lineageEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lineage
}

func (r *replState) followerPos(name string) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pos, ok := r.followers[name]
	return pos, ok
}

func (r *replState) setFollower(name string, pos uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.followers[name] = pos
}

// forget drops a follower's cached position so the next push reprobes it
// — the recovery path for followers that restarted with an empty store.
func (r *replState) forget(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.followers, name)
}

// sendLock returns the per-follower mutex serializing pushes, so the
// background pusher and sync-commit pushes never interleave one
// follower's stream.
func (r *replState) sendLock(name string) *sync.Mutex {
	r.mu.Lock()
	defer r.mu.Unlock()
	mu, ok := r.sendMu[name]
	if !ok {
		mu = &sync.Mutex{}
		r.sendMu[name] = mu
	}
	return mu
}

// window copies log entries covering [pos, head). A nil slice with
// ok=false means pos has been trimmed out of the log and the follower
// needs a snapshot.
func (r *replState) window(pos, head uint64) ([]store.Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if pos < r.base {
		return nil, false
	}
	lo := pos - r.base
	hi := head - r.base
	if hi > uint64(len(r.log)) {
		hi = uint64(len(r.log))
	}
	if lo >= hi {
		return []store.Entry{}, true
	}
	return append([]store.Entry(nil), r.log[lo:hi]...), true
}

// Epoch returns the node's replication epoch.
func (n *Node) Epoch() uint64 { return n.repl.epoch.Load() }

// Head returns the global log head (leader) / applied prefix (follower).
func (n *Node) Head() uint64 {
	if n.repl.leader.Load() {
		return n.repl.head()
	}
	return n.repl.appliedPos()
}

// Applied returns the applied prefix length of the local store.
func (n *Node) Applied() uint64 { return n.repl.appliedPos() }

// Lineage returns the epoch of the leader whose log the applied prefix
// follows. Promotion picks the survivor with the highest lineage, then
// the highest applied position within it.
func (n *Node) Lineage() uint64 { return n.repl.lineageEpoch() }

// Promote makes this node the replication leader under a fresh epoch.
// Call it on the most advanced reachable survivor after a leader death —
// highest Lineage, then highest Applied: because followers apply strict
// prefixes of their lineage and sync commits required a follower ack,
// that survivor holds every acked write. The log restarts at the local
// applied position; follower positions are reprobed lazily on the first
// push, and followers of an older lineage are resynced by snapshot.
func (n *Node) Promote() {
	r := &n.repl
	r.mu.Lock() //lint:allow nakedlock metrics below must run outside the repl lock
	r.lineage = r.epoch.Add(1)
	r.leader.Store(true)
	r.base = r.applied
	r.log = nil
	r.followers = make(map[string]uint64)
	r.mu.Unlock()
	if m := n.metrics; m != nil {
		m.Counter("cluster_promotions_total").Inc()
		m.Gauge("cluster_is_leader").Set(1)
	}
	n.logf("cluster: node %s promoted to leader, epoch %d", n.cfg.Name, r.epoch.Load())
}

// stepDown demotes a deposed leader, adopting newEpoch when it is ahead.
func (n *Node) stepDown(newEpoch uint64) {
	r := &n.repl
	for {
		cur := r.epoch.Load()
		if newEpoch <= cur || r.epoch.CompareAndSwap(cur, newEpoch) {
			break
		}
	}
	if r.leader.CompareAndSwap(true, false) {
		if m := n.metrics; m != nil {
			m.Gauge("cluster_is_leader").Set(0)
		}
		n.logf("cluster: node %s deposed, epoch now %d", n.cfg.Name, r.epoch.Load())
	}
}

// OnCommit is the store commit hook: install it as Options.OnCommit on
// the node's replicated store. On a follower it is a no-op (entries
// arriving via replication are already counted by the applied position).
// On the leader it appends the committed entries to the replication log
// and — in sync mode — withholds the writer's acknowledgment until a
// follower quorum holds them, so a leader can die the instant after an
// ack without losing the write.
//
//lint:allow ctxpropagate store commit-hook signature; sync pushes run under the Start context
func (n *Node) OnCommit(entries []store.Entry) error {
	r := &n.repl
	if !r.leader.Load() {
		return nil
	}
	r.mu.Lock() //lint:allow nakedlock quorum wait below must run outside the repl lock
	r.log = append(r.log, entries...)
	if max := n.maxReplLog(); len(r.log) > max {
		drop := len(r.log) - max
		r.base += uint64(drop)
		r.log = append([]store.Entry(nil), r.log[drop:]...)
	}
	r.applied = r.base + uint64(len(r.log))
	head := r.applied
	r.mu.Unlock()
	if m := n.metrics; m != nil {
		m.Counter("cluster_repl_entries_total").Add(int64(len(entries)))
	}
	if !n.cfg.SyncRepl {
		return nil
	}
	ctx := n.runContext()
	if ctx == nil {
		return fmt.Errorf("cluster: node %s not started; cannot replicate synchronously", n.cfg.Name)
	}
	return n.pushQuorum(ctx, head)
}

// replPeers lists current ring members (other than self) with known
// addresses — the replication targets.
func (n *Node) replPeers() []string {
	var out []string
	for _, name := range n.ring.Nodes() {
		if name == n.cfg.Name {
			continue
		}
		if n.peerURL(name) != "" {
			out = append(out, name)
		}
	}
	return out
}

// syncQuorum is the follower-ack count SyncRepl waits for.
const syncQuorum = 1

// replInterval paces the background replication pusher.
const replInterval = 25 * time.Millisecond

// pushQuorum pushes the log through head to every follower and fails
// unless at least syncQuorum of them confirmed.
func (n *Node) pushQuorum(ctx context.Context, head uint64) error {
	peers := n.replPeers()
	acks := 0
	var lastErr error
	for _, p := range peers {
		if err := n.replicateTo(ctx, p, head); err != nil {
			lastErr = err
			continue
		}
		acks++
	}
	n.updateLagGauge(head)
	if acks < syncQuorum {
		if lastErr == nil {
			lastErr = fmt.Errorf("no followers registered")
		}
		return fmt.Errorf("cluster: sync replication quorum not met (%d/%d acks): %w", acks, syncQuorum, lastErr)
	}
	return nil
}

// replLoop is the background pusher: on the leader it periodically
// drives every follower to the current head, which is the entire
// replication path in async mode and the revived-follower catch-up path
// in sync mode. It also refreshes the replication lag gauge.
func (n *Node) replLoop(ctx context.Context) {
	t := time.NewTicker(replInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if !n.repl.leader.Load() {
			continue
		}
		head := n.repl.head()
		for _, p := range n.replPeers() {
			if pos, ok := n.repl.followerPos(p); ok && pos >= head {
				continue
			}
			if err := n.replicateTo(ctx, p, head); err != nil {
				n.logf("cluster: background replication to %s: %v", p, err)
			}
		}
		n.updateLagGauge(head)
	}
}

// updateLagGauge publishes head minus the slowest known follower.
func (n *Node) updateLagGauge(head uint64) {
	m := n.metrics
	if m == nil {
		return
	}
	r := &n.repl
	r.mu.Lock() //lint:allow nakedlock gauge write below must run outside the repl lock
	lag := uint64(0)
	for _, pos := range r.followers {
		if pos < head && head-pos > lag {
			lag = head - pos
		}
	}
	r.mu.Unlock()
	m.Gauge("cluster_repl_lag").Set(int64(lag))
}

// replicateTo drives one follower from its last known position to head:
// probe the position when unknown, then ship log windows (or a full
// snapshot once the follower is behind the trimmed log, or holds a
// prefix of another lineage) until it confirms the head. The follower's
// reply always carries its applied position and lineage, so a torn frame
// on the wire — the follower applies the good prefix and reports short —
// simply makes the next window start earlier; duplicate frames are
// skipped by position on the follower.
func (n *Node) replicateTo(ctx context.Context, peer string, head uint64) error {
	lock := n.repl.sendLock(peer)
	lock.Lock()
	defer lock.Unlock()
	r := &n.repl
	pos, known := r.followerPos(peer)
	resync := false
	if !known {
		base := n.peerURL(peer)
		if base == "" {
			return fmt.Errorf("cluster: no address for peer %s", peer)
		}
		st, err := FetchStatus(ctx, n.transport, base)
		if err != nil {
			return err
		}
		if st.Epoch > r.epoch.Load() {
			n.stepDown(st.Epoch)
			return fmt.Errorf("cluster: deposed by epoch %d at %s", st.Epoch, peer)
		}
		pos = st.Applied
		// Even a position at or past head proves nothing when the prefix
		// follows another leader's log.
		resync = foreignPrefix(pos, st.Lineage, r.epoch.Load())
		r.setFollower(peer, pos)
	}
	stalls := 0
	for resync || pos < head {
		if !r.leader.Load() {
			// Deposed mid-push: the windows would carry the adopted epoch.
			return fmt.Errorf("cluster: node %s no longer leads", n.cfg.Name)
		}
		var (
			rep replicated
			err error
		)
		if entries, ok := r.window(pos, head); resync || !ok {
			rep, err = n.sendCatchup(ctx, peer)
		} else {
			rep, err = n.sendEntries(ctx, peer, pos, entries)
		}
		if err != nil {
			r.forget(peer)
			return err
		}
		resync = foreignPrefix(rep.applied, rep.lineage, r.epoch.Load())
		switch {
		case resync:
			// A follower of another lineage refused the window; the next
			// pass sends it a snapshot.
		case rep.applied <= pos:
			// No forward progress: a gap reply (follower behind where we
			// thought) makes progress on the next pass by lowering pos, but
			// repeated stalls mean the stream is wedged.
			if stalls++; stalls >= 3 && rep.applied == pos {
				r.forget(peer)
				return fmt.Errorf("cluster: replication to %s stalled at position %d", peer, rep.applied)
			}
		default:
			stalls = 0
		}
		pos = rep.applied
		r.setFollower(peer, pos)
	}
	return nil
}

// foreignPrefix reports whether a follower's applied prefix may diverge
// from the log of the leader at epoch: a non-empty prefix of another
// lineage.
func foreignPrefix(applied, lineage, epoch uint64) bool {
	return applied > 0 && lineage != epoch
}

// Status is a node's replication state, as GET /cluster/status reports
// it.
type Status struct {
	// Node is the node's ring identity.
	Node string
	// Epoch is the node's replication epoch, and Leader whether it leads.
	Epoch  uint64
	Leader bool
	// Pos is the log head on a leader and the applied prefix on a
	// follower (Head).
	Pos uint64
	// Applied is the applied prefix of the local store, and Lineage the
	// epoch of the leader whose log that prefix follows.
	Applied, Lineage uint64
}

// status reports the node's replication state.
func (n *Node) status() Status {
	return Status{
		Node:    n.cfg.Name,
		Epoch:   n.repl.epoch.Load(),
		Leader:  n.repl.leader.Load(),
		Pos:     n.Head(),
		Applied: n.repl.appliedPos(),
		Lineage: n.Lineage(),
	}
}

// encode writes the status, the one layout of /cluster/status's reply:
//
//	<clusterStatus applied=… epoch=… leader=… lineage=… node=… pos=…/>
func (s *Status) encode(w *xmldom.Writer) {
	w.Start("clusterStatus")
	w.Attr("node", s.Node)
	w.Attr("epoch", strconv.FormatUint(s.Epoch, 10))
	w.Attr("leader", strconv.FormatBool(s.Leader))
	w.Attr("pos", strconv.FormatUint(s.Pos, 10))
	w.Attr("applied", strconv.FormatUint(s.Applied, 10))
	w.Attr("lineage", strconv.FormatUint(s.Lineage, 10))
	w.End()
}

// decodeStatus reads the <clusterStatus> whose start tag r has just
// read: the one decoder of the layout encode writes. Its epoch and
// positions must be decimal counts; leader is "true" or read as false.
func decodeStatus(r *xmldom.Reader) (Status, error) {
	if r.Name() != "clusterStatus" {
		return Status{}, fmt.Errorf("cluster: unexpected status response <%s>", r.Name())
	}
	c := counts{r: r}
	s := Status{
		Node:    r.AttrOr("node", ""),
		Epoch:   c.get("epoch"),
		Leader:  r.AttrOr("leader", "") == "true",
		Pos:     c.get("pos"),
		Applied: c.get("applied"),
		Lineage: c.get("lineage"),
	}
	if c.err != nil {
		return Status{}, c.err
	}
	return s, nil
}

// FetchStatus asks the node at base for its replication state through
// t. A reply that is not a <clusterStatus>, or whose epoch or positions
// are missing or not decimal counts, fails the call.
func FetchStatus(ctx context.Context, t *wsrpc.Transport, base string) (Status, error) {
	var s Status
	_, err := t.CallBody(ctx, http.MethodGet, base, "/cluster/status", "", "", true, func(r *xmldom.Reader) (err error) {
		s, err = decodeStatus(r)
		return err
	})
	if err != nil {
		return Status{}, err
	}
	return s, nil
}

// counts reads attributes of one start tag as decimal counts, keeping
// the first that is missing or malformed.
type counts struct {
	r   *xmldom.Reader
	err error
}

func (c *counts) get(name string) uint64 {
	raw := c.r.AttrOr(name, "")
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil && c.err == nil {
		c.err = fmt.Errorf("cluster: <%s> %s %q is not a count", c.r.Name(), name, raw)
	}
	return v
}

// replicateTTL bounds how long a replication frame opens. A leader seals
// each frame as it posts it, and the transport's retries resend it
// within seconds; a minute spares a slow retry and some clock skew
// between nodes. Past it a captured frame no longer opens: a replayed
// window would be skipped by position, but a replayed snapshot would
// take a follower's store back to what it held when it was sealed.
const replicateTTL = time.Minute

// sendEntries ships one log window; returns the follower's reply.
func (n *Node) sendEntries(ctx context.Context, peer string, from uint64, entries []store.Entry) (replicated, error) {
	base := n.peerURL(peer)
	if base == "" {
		return replicated{}, fmt.Errorf("cluster: no address for peer %s", peer)
	}
	frames, err := store.EncodeEntries(entries)
	if err != nil {
		return replicated{}, fmt.Errorf("cluster: encode replication window: %w", err)
	}
	epoch := n.repl.epoch.Load()
	return n.postFrame(ctx, base, "/cluster/replicate", func(w *xmldom.Writer) {
		encodeReplicate(w, epoch, from, len(entries), frames)
	})
}

// encodeReplicate writes a window of the log of the leader at epoch,
// count entries from global position from, as the base64 of their WAL
// frames:
//
//	<replicate count=… epoch=… from=…>base64</replicate>
func encodeReplicate(w *xmldom.Writer, epoch, from uint64, count int, frames []byte) {
	w.Start("replicate")
	w.Attr("epoch", strconv.FormatUint(epoch, 10))
	w.Attr("from", strconv.FormatUint(from, 10))
	w.AttrInt("count", int64(count))
	w.TextBase64(frames)
	w.End()
}

// sendCatchup ships a full store snapshot, for followers behind the
// trimmed log. The head position is captured before the snapshot is
// read: entries committed in between are in the snapshot too, and
// resending them later is harmless (applies are idempotent by position
// and content).
func (n *Node) sendCatchup(ctx context.Context, peer string) (replicated, error) {
	base := n.peerURL(peer)
	if base == "" {
		return replicated{}, fmt.Errorf("cluster: no address for peer %s", peer)
	}
	db := n.DB()
	if db == nil {
		return replicated{}, fmt.Errorf("cluster: node %s has no store to snapshot", n.cfg.Name)
	}
	head := n.repl.head()
	frames, err := store.EncodeEntries(db.SnapshotEntries())
	if err != nil {
		return replicated{}, fmt.Errorf("cluster: encode snapshot: %w", err)
	}
	epoch := n.repl.epoch.Load()
	rep, err := n.postFrame(ctx, base, "/cluster/catchup", func(w *xmldom.Writer) { encodeCatchup(w, epoch, head, frames) })
	if err != nil {
		return replicated{}, err
	}
	if m := n.metrics; m != nil {
		m.Counter("cluster_repl_catchups_total").Inc()
	}
	return rep, nil
}

// encodeCatchup writes a snapshot of the store of the leader at epoch,
// standing at global position pos, as the base64 of its entries' WAL
// frames:
//
//	<catchup epoch=… pos=…>base64</catchup>
func encodeCatchup(w *xmldom.Writer, epoch, pos uint64, frames []byte) {
	w.Start("catchup")
	w.Attr("epoch", strconv.FormatUint(epoch, 10))
	w.Attr("pos", strconv.FormatUint(pos, 10))
	w.TextBase64(frames)
	w.End()
}

// frame is what a follower reads of a replication frame: the leader's
// epoch, the position the entries start at (a window's from, a
// snapshot's pos) and the base64 of their WAL frames.
type frame struct {
	epoch, pos uint64
	frames     string
}

// decodeFrame reads the payload of a replication frame, the document its
// seal carries, in one xmldom.Reader pass: the one decoder of the
// layouts encodeReplicate (want "replicate", at "from") and
// encodeCatchup (want "catchup", at "pos") write. perr is the payload's
// syntax error, which wins over the schema error err: another root
// element, or an epoch or position that is not a decimal count.
func decodeFrame(doc, want, at string) (f frame, perr, err error) {
	r := xmldom.NewReader(doc)
	r.Child(0)
	name := r.Name()
	c := counts{r: r}
	f.epoch, f.pos = c.get("epoch"), c.get(at)
	f.frames = r.Text()
	if perr = r.Close(); perr != nil {
		return frame{}, perr, nil
	}
	if name != want {
		return frame{}, nil, fmt.Errorf("expected <%s>, got <%s>", want, name)
	}
	if c.err != nil {
		return frame{}, nil, c.err
	}
	return f, nil, nil
}

// postFrame seals the replication frame encode writes, a window or a
// snapshot, and posts it to route at base, returning the follower's
// reply. Followers open nothing else: the frame is what writes their
// store.
func (n *Node) postFrame(ctx context.Context, base, route string, encode func(*xmldom.Writer)) (rep replicated, err error) {
	if n.keys == nil {
		return replicated{}, fmt.Errorf("cluster: node %s has no key to seal a replication frame", n.cfg.Name)
	}
	body := pki.Seal(n.keys, pki.LabelReplicate, time.Now().Add(replicateTTL), encode)
	_, err = n.transport.CallBody(ctx, http.MethodPost, base, route, "", body, true, func(r *xmldom.Reader) (err error) {
		rep, err = decodeReplicated(r)
		return err
	})
	if err != nil {
		n.noteReplicateError(err)
		return replicated{}, err
	}
	return rep, nil
}

// noteReplicateError steps the leader down when a follower fenced us off
// with a stale-epoch fault.
func (n *Node) noteReplicateError(err error) {
	var werr *wsrpc.Error
	if errors.As(err, &werr) && werr.Code == "stale-epoch" {
		// The follower knows a higher epoch but the fault doesn't carry it;
		// epoch adoption happens on the next status probe.
		n.stepDown(n.repl.epoch.Load())
	}
}

// replicated is a follower's reply to a window or a snapshot: its applied
// position, its epoch, and the lineage of that prefix.
type replicated struct{ applied, epoch, lineage uint64 }

// encode writes the reply, the one layout of <replicated>:
//
//	<replicated applied=… epoch=… lineage=…/>
func (rep *replicated) encode(w *xmldom.Writer) {
	w.Start("replicated")
	w.Attr("applied", strconv.FormatUint(rep.applied, 10))
	w.Attr("epoch", strconv.FormatUint(rep.epoch, 10))
	w.Attr("lineage", strconv.FormatUint(rep.lineage, 10))
	w.End()
}

// decodeReplicated reads the <replicated> whose start tag r has just
// read: the one decoder of the layout encode writes, whose numbers must
// be decimal counts.
func decodeReplicated(r *xmldom.Reader) (replicated, error) {
	if r.Name() != "replicated" {
		return replicated{}, fmt.Errorf("cluster: unexpected replication response <%s>", r.Name())
	}
	c := counts{r: r}
	rep := replicated{applied: c.get("applied"), epoch: c.get("epoch"), lineage: c.get("lineage")}
	if c.err != nil {
		return replicated{}, c.err
	}
	return rep, nil
}

// --- follower side ---

// checkEpoch applies the fencing rule to an incoming replication epoch:
// lower than ours → reject (a deposed leader must not write); higher →
// adopt it and step down if we were leader. Equal epochs from another
// leader are a split brain the deterministic promotion rule never
// produces; refuse them too.
func (n *Node) checkEpoch(epoch uint64) error {
	r := &n.repl
	for {
		cur := r.epoch.Load()
		if epoch < cur {
			return fmt.Errorf("cluster: stale epoch %d (current %d)", epoch, cur)
		}
		if epoch == cur {
			if r.leader.Load() {
				return fmt.Errorf("cluster: conflicting leader at epoch %d", epoch)
			}
			return nil
		}
		if r.epoch.CompareAndSwap(cur, epoch) {
			if r.leader.CompareAndSwap(true, false) {
				if m := n.metrics; m != nil {
					m.Gauge("cluster_is_leader").Set(0)
				}
				n.logf("cluster: node %s deposed by replication epoch %d", n.cfg.Name, epoch)
			}
			return nil
		}
	}
}

// applyEntriesAt applies a window of the log of the leader at epoch,
// starting at global position from, returning the new applied position.
// Entries already applied (duplicates of an earlier delivery) are
// skipped by position; a gap — from beyond our applied prefix — applies
// nothing and reports where we are, so the sender rewinds. A non-empty
// prefix of another lineage applies nothing either: its positions may
// name other entries, so the sender must resync it by snapshot.
func (n *Node) applyEntriesAt(epoch, from uint64, entries []store.Entry) (uint64, error) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	r := &n.repl
	r.mu.Lock() //lint:allow nakedlock position snapshot; store apply below runs outside the repl lock
	applied := r.applied
	foreign := foreignPrefix(applied, r.lineage, epoch)
	if !foreign {
		r.lineage = epoch
	}
	r.mu.Unlock()
	if foreign || from > applied {
		return applied, nil
	}
	skip := applied - from
	if skip >= uint64(len(entries)) {
		return applied, nil // pure duplicate
	}
	db := n.DB()
	if db == nil {
		return applied, fmt.Errorf("cluster: node %s has no store attached", n.cfg.Name)
	}
	if err := db.ApplyEntries(entries[skip:]); err != nil {
		return applied, err
	}
	newPos := from + uint64(len(entries))
	r.mu.Lock() //lint:allow nakedlock short position advance; no early return before Unlock
	if newPos > r.applied {
		r.applied = newPos
	}
	applied = r.applied
	r.mu.Unlock()
	return applied, nil
}

// applySnapshotAt reconciles the local store to a full snapshot of the
// leader at epoch, standing at global position pos: snapshot entries are
// applied and local records absent from the snapshot are deleted, so a
// revived follower with stale or divergent state converges to the
// leader's exact content, and its prefix joins the leader's lineage at
// pos. Only a snapshot ahead of the applied prefix applies: one of a
// newer lineage, or of the same lineage past the applied position. Any
// other — a catch-up replayed after windows took the follower further —
// applies nothing and reports where the follower is, as a duplicate
// window does.
func (n *Node) applySnapshotAt(epoch, pos uint64, entries []store.Entry) (uint64, error) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	r := &n.repl
	r.mu.Lock() //lint:allow nakedlock position snapshot; store apply below runs outside the repl lock
	applied, lineage := r.applied, r.lineage
	r.mu.Unlock()
	if epoch < lineage || epoch == lineage && pos <= applied {
		return applied, nil
	}
	db := n.DB()
	if db == nil {
		return 0, fmt.Errorf("cluster: node %s has no store attached", n.cfg.Name)
	}
	want := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.Op == store.OpPut {
			want[e.Kind+"\x00"+e.Key] = true
		}
	}
	for _, kind := range db.Kinds() {
		for _, key := range db.Keys(kind) {
			if !want[kind+"\x00"+key] {
				if err := db.Delete(kind, key); err != nil {
					return 0, err
				}
			}
		}
	}
	if err := db.ApplyEntries(entries); err != nil {
		return 0, err
	}
	r.mu.Lock() //lint:allow nakedlock short position set; no early return before Unlock
	r.applied, r.lineage = pos, epoch
	r.mu.Unlock()
	return pos, nil
}

// decodePayload decodes the base64 CRC-framed entry stream of a
// replication request body. Decoding is torn-tail tolerant — exactly the
// store's WAL recovery rule — so a truncated frame yields the good
// prefix and the sender retransmits the rest.
func decodePayload(text string) ([]store.Entry, error) {
	raw, err := base64.StdEncoding.DecodeString(text)
	if err != nil {
		return nil, fmt.Errorf("cluster: replication payload not base64: %w", err)
	}
	entries, _ := store.DecodeFrames(bytes.NewReader(raw))
	return entries, nil
}
