package negotiation

import (
	"encoding/base64"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// Endpoint suspend/resume.
//
// Trust-X resumes interrupted negotiations: a suspended negotiation is
// captured as the last acknowledged tree state plus the exchange
// position, so a rejoining party continues where it stopped instead of
// restarting both phases. EncodeSnapshot writes everything Handle needs
// — the mirror tree, the chosen candidates (by credential ID; the
// credentials themselves stay in the party's profile), the disclosure
// positions and nonces, and the partial outcome — and RestoreEndpoint
// rebuilds a live endpoint from it. Both sides use it: clients embed the
// snapshot (SnapshotDOM, its tree) in a ResumeTicket, servers persist it
// across restarts and ship it to a cluster standby.

// ErrSnapshotDone reports an attempt to snapshot a finished endpoint.
var ErrSnapshotDone = fmt.Errorf("negotiation: endpoint already done, nothing to resume")

var errNoTree = fmt.Errorf("negotiation: nothing to snapshot before the first message")

// SnapshotErr reports why the endpoint has no state to snapshot:
// ErrSnapshotDone once it has finished, an error before its first
// message built the tree, and nil when EncodeSnapshot may run.
func (e *Endpoint) SnapshotErr() error {
	if e.phase == phaseDone {
		return ErrSnapshotDone
	}
	if e.tree == nil {
		return errNoTree
	}
	return nil
}

// SnapshotDOM returns the endpoint's in-flight negotiation state as a
// tree, for resume tickets: the document EncodeSnapshot writes.
func (e *Endpoint) SnapshotDOM() (*xmldom.Node, error) {
	if err := e.SnapshotErr(); err != nil {
		return nil, err
	}
	return xmldom.Tree(e.EncodeSnapshot), nil
}

// EncodeSnapshot writes the endpoint's in-flight negotiation state as
// <negotiationState>. Call it only when SnapshotErr reports nil.
func (e *Endpoint) EncodeSnapshot(w *xmldom.Writer) {
	w.Start("negotiationState")
	w.Attr("role", e.role.String())
	w.Attr("resource", e.resource)
	w.Attr("peer", e.peer)
	w.Attr("phase", phaseName(e.phase))
	w.AttrInt("rounds", int64(e.rounds))
	w.AttrInt("seqPos", int64(e.seqPos))
	if e.peerProof {
		w.Attr("peerProof", "true")
	}
	if len(e.lastNonceRecv) > 0 {
		w.AttrBase64("nonceRecv", e.lastNonceRecv)
	}
	if len(e.lastNonceSent) > 0 {
		w.AttrBase64("nonceSent", e.lastNonceSent)
	}
	encodeTree(w, e.tree)
	var buf [16]string // the key lists below stay on the stack for small trees
	if len(e.disclosed) > 0 {
		ids := buf[:0]
		for id, ok := range e.disclosed {
			if ok {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		w.Start("disclosed")
		w.Text(strings.Join(ids, " "))
		w.End()
	}
	for _, id := range appendSortedKeys(buf[:0], e.chosen) {
		w.Start("chosen")
		w.Attr("node", id)
		w.Attr("credential", e.chosen[id].cred.ID)
		w.End()
	}
	for _, id := range appendSortedKeys(buf[:0], e.chosenAlts) {
		w.Start("chosenAlts")
		w.Attr("node", id)
		for _, c := range e.chosenAlts[id] {
			w.Start("cand")
			if c.cred != nil {
				w.Attr("credential", c.cred.ID)
			}
			w.End()
		}
		w.End()
	}
	if e.outcome != nil && (len(e.outcome.Received) > 0 || len(e.outcome.Sent) > 0) {
		w.Start("partialOutcome")
		for _, d := range e.outcome.Received {
			encodeDisclosed(w, "received", d)
		}
		for _, d := range e.outcome.Sent {
			encodeDisclosed(w, "sent", d)
		}
		w.End()
	}
	w.End()
}

// RestoreEndpoint rebuilds a live endpoint for p from a snapshot.
// Credentials are re-resolved from p's current profile by ID: restoring
// fails only when a credential still owed to the peer is no longer held.
func RestoreEndpoint(p *Party, root *xmldom.Node) (*Endpoint, error) {
	if root == nil || root.Name != "negotiationState" {
		return nil, fmt.Errorf("negotiation: expected <negotiationState>, got %v", nodeName(root))
	}
	e := &Endpoint{
		party:      p,
		resource:   root.AttrOr("resource", ""),
		peer:       root.AttrOr("peer", ""),
		chosen:     make(map[string]candidate),
		chosenAlts: make(map[string][]candidate),
		disclosed:  make(map[string]bool),
	}
	if root.AttrOr("role", "") == Controller.String() {
		e.role = Controller
	}
	var err error
	if e.phase, err = parsePhase(root.AttrOr("phase", "")); err != nil {
		return nil, err
	}
	e.rounds, _ = strconv.Atoi(root.AttrOr("rounds", "0"))
	e.seqPos, _ = strconv.Atoi(root.AttrOr("seqPos", "0"))
	e.peerProof = root.AttrOr("peerProof", "") == "true"
	if v := root.AttrOr("nonceRecv", ""); v != "" {
		if e.lastNonceRecv, err = base64.StdEncoding.DecodeString(v); err != nil {
			return nil, fmt.Errorf("negotiation: bad nonceRecv: %w", err)
		}
	}
	if v := root.AttrOr("nonceSent", ""); v != "" {
		if e.lastNonceSent, err = base64.StdEncoding.DecodeString(v); err != nil {
			return nil, fmt.Errorf("negotiation: bad nonceSent: %w", err)
		}
	}
	if e.tree, err = treeFromDOM(root.Child("tree")); err != nil {
		return nil, err
	}
	if d := root.Child("disclosed"); d != nil {
		for _, id := range strings.Fields(d.Text()) {
			e.disclosed[id] = true
		}
	}
	// The trust sequence is a pure function of the completed tree, so it
	// is recomputed, not stored (phase 2 implies a complete tree).
	if e.phase == phaseExchange {
		e.seq = e.tree.Sequence()
		if e.seq == nil {
			return nil, fmt.Errorf("negotiation: restored exchange-phase tree is not satisfiable")
		}
		if e.seqPos > len(e.seq) {
			return nil, fmt.Errorf("negotiation: restored seqPos %d beyond sequence length %d", e.seqPos, len(e.seq))
		}
	}
	for _, ch := range root.Childs("chosen") {
		nodeID, credID := ch.AttrOr("node", ""), ch.AttrOr("credential", "")
		c, ok, err := e.findCandidate(nodeID, credID)
		if err != nil {
			return nil, err
		}
		if ok {
			e.chosen[nodeID] = c
		}
	}
	for _, ca := range root.Childs("chosenAlts") {
		nodeID := ca.AttrOr("node", "")
		var alts []candidate
		for _, cn := range ca.Childs("cand") {
			c, ok, err := e.findCandidate(nodeID, cn.AttrOr("credential", ""))
			if err != nil {
				return nil, err
			}
			_ = ok // a missing optional candidate stays a zero placeholder
			alts = append(alts, c)
		}
		e.chosenAlts[nodeID] = alts
	}
	if err := e.checkOwedCandidates(); err != nil {
		return nil, err
	}
	if po := root.Child("partialOutcome"); po != nil {
		out := e.ensureOutcome()
		for _, el := range po.Elements() {
			d, err := disclosedFromDOM(el)
			if err != nil {
				return nil, err
			}
			switch el.Name {
			case "received":
				out.Received = append(out.Received, d)
			case "sent":
				out.Sent = append(out.Sent, d)
			}
		}
	}
	return e, nil
}

// findCandidate re-resolves a chosen credential from the party's current
// profile by node term and credential ID.
func (e *Endpoint) findCandidate(nodeID, credID string) (candidate, bool, error) {
	n := e.tree.Node(nodeID)
	if n == nil {
		return candidate{}, false, fmt.Errorf("negotiation: snapshot references unknown node %s", nodeID)
	}
	cands, err := e.party.resolveTerm(n.Term)
	if err != nil {
		return candidate{}, false, nil // no candidates at all; checkOwedCandidates decides
	}
	for _, c := range cands {
		if c.cred.ID == credID {
			return c, true, nil
		}
	}
	return candidate{}, false, nil
}

// checkOwedCandidates verifies that every sequence entry this endpoint
// still owes the peer has a disclosable candidate; entries already
// disclosed (or belonging to the peer) need nothing.
func (e *Endpoint) checkOwedCandidates() error {
	for i := e.seqPos; i < len(e.seq); i++ {
		s := e.seq[i]
		if s.Owner != e.party.Name || e.disclosed[s.NodeID] {
			continue
		}
		if _, ok := e.chosen[s.NodeID]; ok {
			continue
		}
		if ai := e.tree.ChosenAlt(s.NodeID); ai >= 0 {
			if alts := e.chosenAlts[s.NodeID]; ai < len(alts) && alts[ai].cred != nil {
				continue
			}
		}
		return fmt.Errorf("negotiation: cannot resume — credential for node %s no longer held", s.NodeID)
	}
	return nil
}

// ---- tree (de)serialization ----

func encodeTree(w *xmldom.Writer, t *Tree) {
	w.Start("tree")
	var buf [16]string
	for _, id := range appendSortedKeys(buf[:0], t.nodes) {
		n := t.nodes[id]
		w.Start("node")
		w.Attr("id", n.ID)
		w.Attr("credType", n.Term.CredType)
		w.Attr("owner", n.Owner)
		w.Attr("state", n.State.String())
		if n.Parent != "" {
			w.Attr("parent", n.Parent)
		}
		for _, c := range n.Term.Conditions {
			w.Start("cond")
			w.Text(c)
			w.End()
		}
		for _, alt := range n.Alts {
			w.Start("alt")
			w.Text(strings.Join(alt, " "))
			w.End()
		}
		w.End()
	}
	w.End()
}

func treeFromDOM(root *xmldom.Node) (*Tree, error) {
	if root == nil {
		return nil, fmt.Errorf("negotiation: snapshot without <tree>")
	}
	t := &Tree{nodes: make(map[string]*Node)}
	for _, nd := range root.Childs("node") {
		id := nd.AttrOr("id", "")
		if id == "" {
			return nil, fmt.Errorf("negotiation: tree node without id")
		}
		state, err := parseNodeState(nd.AttrOr("state", ""))
		if err != nil {
			return nil, err
		}
		n := &Node{
			ID:     id,
			Term:   xtnl.Term{CredType: nd.AttrOr("credType", "")},
			Owner:  nd.AttrOr("owner", ""),
			State:  state,
			Parent: nd.AttrOr("parent", ""),
		}
		for _, c := range nd.Childs("cond") {
			n.Term.Conditions = append(n.Term.Conditions, c.Text())
		}
		for _, a := range nd.Childs("alt") {
			n.Alts = append(n.Alts, strings.Fields(a.Text()))
		}
		t.nodes[id] = n
	}
	if err := t.checkShape(); err != nil {
		return nil, err
	}
	return t, nil
}

// checkShape accepts only a tree: a walk from the root over the
// alternatives reaches every node exactly once, each child names the
// node that lists it as its parent, and the root has none. The engine
// recurses over the alternatives, so a cycle would never return.
func (t *Tree) checkShape() error {
	root := t.nodes[RootID]
	if root == nil {
		return fmt.Errorf("negotiation: snapshot tree without root node")
	}
	if root.Parent != "" {
		return fmt.Errorf("negotiation: snapshot root names parent %s", root.Parent)
	}
	reached := map[string]bool{RootID: true}
	for todo := []*Node{root}; len(todo) > 0; {
		n := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		for _, alt := range n.Alts {
			for _, cid := range alt {
				c := t.nodes[cid]
				switch {
				case c == nil:
					return fmt.Errorf("negotiation: node %s references unknown child %s", n.ID, cid)
				case reached[cid]:
					return fmt.Errorf("negotiation: node %s lists %s, which the tree already reaches", n.ID, cid)
				case c.Parent != n.ID:
					return fmt.Errorf("negotiation: node %s lists child %s whose parent is %q", n.ID, cid, c.Parent)
				}
				reached[cid] = true
				todo = append(todo, c)
			}
		}
	}
	if len(reached) != len(t.nodes) {
		return fmt.Errorf("negotiation: snapshot tree has %d nodes unreachable from the root", len(t.nodes)-len(reached))
	}
	return nil
}

// ---- small helpers ----

func phaseName(p phase) string {
	if p == phaseExchange {
		return "exchange"
	}
	return "eval"
}

func parsePhase(s string) (phase, error) {
	switch s {
	case "eval":
		return phaseEval, nil
	case "exchange":
		return phaseExchange, nil
	default:
		return 0, fmt.Errorf("negotiation: snapshot phase %q not resumable", s)
	}
}

func parseNodeState(s string) (NodeState, error) {
	for _, st := range []NodeState{StateOpen, StateComply, StateExpanded, StateDenied} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("negotiation: unknown node state %q", s)
}

func encodeDisclosed(w *xmldom.Writer, name string, d Disclosed) {
	w.Start(name)
	w.Attr("by", d.By)
	w.Attr("node", d.NodeID)
	if d.Credential != nil {
		d.Credential.Encode(w)
	}
	w.End()
}

func disclosedFromDOM(n *xmldom.Node) (Disclosed, error) {
	d := Disclosed{By: n.AttrOr("by", ""), NodeID: n.AttrOr("node", "")}
	if c := n.Child("credential"); c != nil {
		cred, err := xtnl.CredentialFromDOM(c)
		if err != nil {
			return Disclosed{}, fmt.Errorf("negotiation: snapshot credential: %w", err)
		}
		d.Credential = cred
	}
	return d, nil
}

// appendSortedKeys appends m's keys to dst, sorted.
func appendSortedKeys[M ~map[string]V, V any](dst []string, m M) []string {
	start := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst[start:])
	return dst
}

func nodeName(n *xmldom.Node) string {
	if n == nil {
		return "nil"
	}
	return "<" + n.Name + ">"
}
