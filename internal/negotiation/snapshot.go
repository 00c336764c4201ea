package negotiation

import (
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
	var buf [16]string // the disclosed list stays on the stack for small trees
	ids := buf[:0]
	for _, n := range e.tree.index {
		if n.disclosed {
			ids = append(ids, n.ID)
		}
	}
	if len(ids) > 0 {
		w.Start("disclosed")
		w.Text(strings.Join(ids, " "))
		w.End()
	}
	for _, n := range e.tree.index {
		if n.pick.cred != nil {
			w.Start("chosen")
			w.Attr("node", n.ID)
			w.Attr("credential", n.pick.cred.ID)
			w.End()
		}
	}
	for _, n := range e.tree.index {
		if n.altPicks == nil {
			continue
		}
		w.Start("chosenAlts")
		w.Attr("node", n.ID)
		for _, c := range n.altPicks {
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
		party:    p,
		resource: root.AttrOr("resource", ""),
		peer:     root.AttrOr("peer", ""),
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
	if e.lastNonceRecv, err = appendB64(e.nonces[0][:0], root.AttrOr("nonceRecv", "")); err != nil {
		return nil, fmt.Errorf("negotiation: bad nonceRecv: %w", err)
	}
	if e.lastNonceSent, err = appendB64(e.nonces[1][:0], root.AttrOr("nonceSent", "")); err != nil {
		return nil, fmt.Errorf("negotiation: bad nonceSent: %w", err)
	}
	if e.tree, err = treeFromDOM(root.Child("tree")); err != nil {
		return nil, err
	}
	if d := root.Child("disclosed"); d != nil {
		for _, id := range strings.Fields(d.Text()) {
			n := e.tree.Node(id)
			if n == nil {
				return nil, fmt.Errorf("negotiation: snapshot references unknown node %s", id)
			}
			n.disclosed = true
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
		n, err := e.snapshotNode(ch)
		if err != nil {
			return nil, err
		}
		if c, ok := e.findCandidate(n, ch.AttrOr("credential", "")); ok {
			n.pick = c
		}
	}
	for _, ca := range root.Childs("chosenAlts") {
		n, err := e.snapshotNode(ca)
		if err != nil {
			return nil, err
		}
		cands := ca.Childs("cand")
		alts := make([]candidate, 0, len(cands)) // not nil, even when empty: the node has chosen
		for _, cn := range cands {
			// a missing optional candidate stays a zero placeholder
			c, _ := e.findCandidate(n, cn.AttrOr("credential", ""))
			alts = append(alts, c)
		}
		n.altPicks = alts
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

// snapshotNode returns the tree node a <chosen> or <chosenAlts> element
// names.
func (e *Endpoint) snapshotNode(el *xmldom.Node) (*Node, error) {
	id := el.AttrOr("node", "")
	n := e.tree.Node(id)
	if n == nil {
		return nil, fmt.Errorf("negotiation: snapshot references unknown node %s", id)
	}
	return n, nil
}

// findCandidate re-resolves a chosen credential from the party's current
// profile by node term and credential ID. With no candidate at all it
// reports none; checkOwedCandidates decides.
func (e *Endpoint) findCandidate(n *Node, credID string) (candidate, bool) {
	cands, _ := e.party.resolveTerm(nil, n.Term)
	for _, c := range cands {
		if c.cred.ID == credID {
			return c, true
		}
	}
	return candidate{}, false
}

// checkOwedCandidates verifies that every sequence entry this endpoint
// still owes the peer has a disclosable candidate; entries already
// disclosed (or belonging to the peer) need nothing.
func (e *Endpoint) checkOwedCandidates() error {
	for _, s := range e.seq[e.seqPos:] {
		if s.Owner != e.party.Name || s.node.disclosed {
			continue
		}
		if c, ok := s.node.chosen(); ok && c.cred != nil {
			continue
		}
		return fmt.Errorf("negotiation: cannot resume — credential for node %s no longer held", s.NodeID)
	}
	return nil
}

// ---- tree (de)serialization ----

func encodeTree(w *xmldom.Writer, t *Tree) {
	w.Start("tree")
	for _, n := range t.index {
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
		// Each alternative's text is the run of n.ids naming its children.
		for lo, off := 0, 0; lo < len(n.kids); {
			hi := n.altEnd(lo)
			end := off - 1
			for i := lo; i < hi; i++ {
				end += len(n.kids[i].ID) + 1
			}
			w.Start("alt")
			w.Text(n.ids[off:end])
			w.End()
			lo, off = hi, end+1
		}
		w.End()
	}
	w.End()
}

// treeFromDOM rebuilds a tree from its snapshot. It accepts only a tree
// Expand could have grown: one node per ID, the root "r" without a
// parent, no empty alternative, and a walk from the root over the
// alternatives that reaches every node exactly once, each child naming
// the node that lists it as its parent. The engine recurses over the
// alternatives, so a cycle would never return.
func treeFromDOM(root *xmldom.Node) (*Tree, error) {
	if root == nil {
		return nil, fmt.Errorf("negotiation: snapshot without <tree>")
	}
	els := root.Childs("node")
	parsed := make([]parsedNode, len(els))
	for i, nd := range els {
		p := &parsed[i]
		if p.ID = nd.AttrOr("id", ""); p.ID == "" {
			return nil, fmt.Errorf("negotiation: tree node without id")
		}
		state, err := parseNodeState(nd.AttrOr("state", ""))
		if err != nil {
			return nil, err
		}
		p.Node = Node{
			ID:     p.ID,
			Term:   xtnl.Term{CredType: nd.AttrOr("credType", "")},
			Owner:  nd.AttrOr("owner", ""),
			State:  state,
			Parent: nd.AttrOr("parent", ""),
		}
		for _, c := range nd.Childs("cond") {
			p.Term.Conditions = append(p.Term.Conditions, c.Text())
		}
		for _, a := range nd.Childs("alt") {
			ids := strings.Fields(a.Text())
			if len(ids) == 0 {
				return nil, fmt.Errorf("negotiation: node %s has an empty alternative", p.ID)
			}
			p.alts = append(p.alts, ids)
		}
	}
	slices.SortFunc(parsed, func(a, b parsedNode) int { return strings.Compare(a.ID, b.ID) })
	find := func(id string) *parsedNode {
		i, ok := slices.BinarySearchFunc(parsed, id, func(p parsedNode, id string) int { return strings.Compare(p.ID, id) })
		if !ok {
			return nil
		}
		return &parsed[i]
	}
	for i := 1; i < len(parsed); i++ {
		if parsed[i].ID == parsed[i-1].ID {
			return nil, fmt.Errorf("negotiation: snapshot tree lists node %s twice", parsed[i].ID)
		}
	}
	pr := find(RootID)
	if pr == nil {
		return nil, fmt.Errorf("negotiation: snapshot tree without root node")
	}
	if pr.Parent != "" {
		return nil, fmt.Errorf("negotiation: snapshot root names parent %s", pr.Parent)
	}
	t := &Tree{root: pr.Node}
	t.index = append(t.first[:0], &t.root)
	pr.reached = true
	reached := 1
	for todo := []*parsedNode{pr}; len(todo) > 0; {
		p := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		n := p.built
		if n == nil {
			n = &t.root
		}
		total := 0
		for _, alt := range p.alts {
			total += len(alt)
		}
		if total == 0 {
			continue
		}
		kids := make([]Node, 0, total)
		ids := make([]string, 0, total)
		from := len(todo)
		for ai, alt := range p.alts {
			for _, cid := range alt {
				c := find(cid)
				switch {
				case c == nil:
					return nil, fmt.Errorf("negotiation: node %s references unknown child %s", n.ID, cid)
				case c.reached:
					return nil, fmt.Errorf("negotiation: node %s lists %s, which the tree already reaches", n.ID, cid)
				case c.Parent != n.ID:
					return nil, fmt.Errorf("negotiation: node %s lists child %s whose parent is %q", n.ID, cid, c.Parent)
				}
				c.reached = true
				k := c.Node
				k.parent, k.alt = n, ai
				kids = append(kids, k)
				ids = append(ids, cid)
				todo = append(todo, c)
			}
		}
		reached += len(kids)
		// The children's IDs become substrings of their joined list, as
		// Expand cuts them.
		n.ids = strings.Join(ids, " ")
		for i, off := 0, 0; i < len(kids); i++ {
			kids[i].ID = n.ids[off : off+len(ids[i])]
			off += len(ids[i]) + 1
			t.index = append(t.index, &kids[i])
			todo[from+i].built = &kids[i]
		}
		n.kids = kids
	}
	if reached != len(parsed) {
		return nil, fmt.Errorf("negotiation: snapshot tree has %d nodes unreachable from the root", len(parsed)-reached)
	}
	slices.SortFunc(t.index, func(a, b *Node) int { return strings.Compare(a.ID, b.ID) })
	return t, nil
}

// parsedNode is a snapshot's node before treeFromDOM places it.
type parsedNode struct {
	Node
	alts    [][]string // the IDs of each alternative's children
	reached bool
	built   *Node // the node in the tree
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

func nodeName(n *xmldom.Node) string {
	if n == nil {
		return "nil"
	}
	return "<" + n.Name + ">"
}
