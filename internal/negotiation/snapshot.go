package negotiation

import (
	"cmp"
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

// RestoreEndpoint rebuilds a live endpoint for p from a snapshot tree,
// as DecodeSnapshot decodes it.
func RestoreEndpoint(p *Party, root *xmldom.Node) (*Endpoint, error) {
	r := xmldom.NewNodeReader(root)
	defer r.Close()
	r.Child(0)
	return DecodeSnapshot(p, r)
}

// DecodeSnapshot decodes the <negotiationState> whose start tag r has
// just read into a live endpoint for p, reading it to its end: the one
// decoder of EncodeSnapshot's layout, over bytes and over trees alike.
// Credentials are re-resolved from p's current profile by ID: restoring
// fails only when a credential still owed to the peer is no longer
// held. The children count in any order (the first <tree>, <disclosed>
// and <partialOutcome>, every <chosen> and <chosenAlts>): what names a
// node is applied once the element ends, in the order of the checks.
func DecodeSnapshot(p *Party, r *xmldom.Reader) (*Endpoint, error) {
	if r.Name() != "negotiationState" {
		return nil, fmt.Errorf("negotiation: expected <negotiationState>, got <%s>", r.Name())
	}
	e := &Endpoint{party: p, resource: r.AttrOr("resource", ""), peer: r.AttrOr("peer", "")}
	if r.AttrOr("role", "") == Controller.String() {
		e.role = Controller
	}
	var err error
	if e.phase, err = parsePhase(r.AttrOr("phase", "")); err != nil {
		return nil, err
	}
	if e.rounds, err = snapshotCount(r, "rounds"); err != nil {
		return nil, err
	}
	if e.seqPos, err = snapshotCount(r, "seqPos"); err != nil {
		return nil, err
	}
	e.peerProof = r.AttrOr("peerProof", "") == "true"
	if e.lastNonceRecv, err = appendB64(e.nonces[0][:0], r.AttrOr("nonceRecv", "")); err != nil {
		return nil, fmt.Errorf("negotiation: bad nonceRecv: %w", err)
	}
	if e.lastNonceSent, err = appendB64(e.nonces[1][:0], r.AttrOr("nonceSent", "")); err != nil {
		return nil, fmt.Errorf("negotiation: bad nonceSent: %w", err)
	}
	errs := [2]error{fmt.Errorf("negotiation: snapshot without <tree>")} // tree, partial outcome
	var disclosed string
	var picks [2][]snapshotPick // <chosen>, <chosenAlts>
	var seen [3]bool            // tree, disclosed, partialOutcome
	for d := r.Depth(); r.Child(d); {
		switch name := r.Name(); {
		case name == "tree" && !seen[0]:
			seen[0] = true
			e.tree, errs[0] = decodeTree(r)
		case name == "disclosed" && !seen[1]:
			seen[1] = true
			disclosed = r.Text()
		case name == "chosen":
			picks[0] = append(picks[0], snapshotPick{r.AttrOr("node", ""), []string{r.AttrOr("credential", "")}})
		case name == "chosenAlts":
			pick := snapshotPick{node: r.AttrOr("node", "")}
			for d := r.Depth(); r.Child(d); {
				if r.Name() == "cand" {
					pick.creds = append(pick.creds, r.AttrOr("credential", ""))
				}
			}
			picks[1] = append(picks[1], pick)
		case name == "partialOutcome" && !seen[2]:
			seen[2] = true
			errs[1] = e.decodePartialOutcome(r)
		}
	}
	if errs[0] != nil {
		return nil, errs[0]
	}
	for _, id := range strings.Fields(disclosed) {
		n := e.tree.Node(id)
		if n == nil {
			return nil, fmt.Errorf("negotiation: snapshot references unknown node %s", id)
		}
		n.disclosed = true
	}
	// The trust sequence is a pure function of the completed tree, so it
	// is recomputed, not stored (phase 2 implies a complete tree). Before
	// it, in phase eval, the sequence is empty and seqPos 0.
	if e.phase == phaseExchange {
		if e.seq = e.tree.Sequence(); e.seq == nil {
			return nil, fmt.Errorf("negotiation: restored exchange-phase tree is not satisfiable")
		}
	}
	if e.seqPos > len(e.seq) {
		return nil, fmt.Errorf("negotiation: restored seqPos %d beyond sequence length %d", e.seqPos, len(e.seq))
	}
	for i, list := range picks {
		for _, pk := range list {
			n := e.tree.Node(pk.node)
			if n == nil {
				return nil, fmt.Errorf("negotiation: snapshot references unknown node %s", pk.node)
			}
			if i == 0 {
				if c, ok := e.findCandidate(n, pk.creds[0]); ok {
					n.pick = c
				}
				continue
			}
			n.altPicks = make([]candidate, 0, len(pk.creds)) // not nil, even when empty: the node has chosen
			for _, id := range pk.creds {
				c, _ := e.findCandidate(n, id) // a missing optional candidate stays a zero placeholder
				n.altPicks = append(n.altPicks, c)
			}
		}
	}
	if err := cmp.Or(e.checkOwedCandidates(), errs[1]); err != nil {
		return nil, err
	}
	return e, nil
}

// snapshotPick is the node a <chosen> or <chosenAlts> element names and
// the credential IDs it picks: the one of <chosen>, or each <cand>'s.
type snapshotPick struct {
	node  string
	creds []string
}

// snapshotCount reads the named attribute of the <negotiationState>
// start tag r has just read, 0 when absent: a count, so anything but a
// non-negative decimal is refused.
func snapshotCount(r *xmldom.Reader, name string) (int, error) {
	raw := r.AttrOr(name, "0")
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("negotiation: snapshot %s %q is not a non-negative decimal", name, raw)
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

// decodeTree reads the <tree> whose start tag r has just read and
// builds the tree its <node> children describe (buildTree). Every <cond>
// and <alt> of a node counts, and the first malformed node is the error.
func decodeTree(r *xmldom.Reader) (*Tree, error) {
	var nodes []parsedNode
	for d := r.Depth(); r.Child(d); {
		if r.Name() != "node" {
			continue
		}
		p := parsedNode{Node: Node{ID: r.AttrOr("id", ""), Term: xtnl.Term{CredType: r.AttrOr("credType", "")},
			Owner: r.AttrOr("owner", ""), Parent: r.AttrOr("parent", "")}}
		if p.ID == "" {
			return nil, fmt.Errorf("negotiation: tree node without id")
		}
		var err error
		if p.State, err = parseNodeState(r.AttrOr("state", "")); err != nil {
			return nil, err
		}
		for d := r.Depth(); r.Child(d); {
			switch r.Name() {
			case "cond":
				p.Term.Conditions = append(p.Term.Conditions, r.Text())
			case "alt":
				ids := strings.Fields(r.Text())
				if len(ids) == 0 {
					return nil, fmt.Errorf("negotiation: node %s has an empty alternative", p.ID)
				}
				p.alts = append(p.alts, ids)
			}
		}
		nodes = append(nodes, p)
	}
	return buildTree(nodes)
}

// buildTree places a snapshot's nodes into a tree. It accepts only a
// tree Expand could have grown: one node per ID, the root "r" without a
// parent, no empty alternative, and a walk from the root over the
// alternatives that reaches every node exactly once, each child naming
// the node that lists it as its parent. The engine recurses over the
// alternatives, so a cycle would never return.
func buildTree(parsed []parsedNode) (*Tree, error) {
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

// parsedNode is a snapshot's node before buildTree places it.
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

// decodePartialOutcome reads the <partialOutcome> whose start tag r has
// just read into e's outcome: each <received> and <sent> child, with the
// first <credential> it holds. The first credential of any child that
// does not decode is the error.
func (e *Endpoint) decodePartialOutcome(r *xmldom.Reader) error {
	out := e.ensureOutcome()
	for d := r.Depth(); r.Child(d); {
		name := r.Name()
		dis := Disclosed{By: r.AttrOr("by", ""), NodeID: r.AttrOr("node", "")}
		for d := r.Depth(); r.Child(d); {
			if r.Name() == "credential" {
				c, err := xtnl.DecodeCredential(r)
				if err != nil {
					return fmt.Errorf("negotiation: snapshot credential: %w", err)
				}
				dis.Credential = c
				break // Child skips the rest of the element
			}
		}
		switch name {
		case "received":
			out.Received = append(out.Received, dis)
		case "sent":
			out.Sent = append(out.Sent, dis)
		}
	}
	return nil
}
