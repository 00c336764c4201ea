package negotiation

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"trustvo/internal/xtnl"
)

// The negotiation tree (§4.2): "a labeled tree rooted at the resource
// that initially started the negotiation. Each node corresponds to a
// term, whereas edges correspond to policy rules. A negotiation tree is
// characterized by two different kinds of edges: simple edges and
// multiedges. A simple edge denotes a policy having only one term on the
// left side component of the rule. By contrast, a multiedge links
// several simple edges to represent policy rules having more than one
// term... Nodes belonging to a multiedge are thus considered as a whole."
//
// Both endpoints maintain mirror copies: node IDs are derived
// deterministically from the message stream (child of node n via
// alternative a, term t has ID "n.a.t"), so the two copies stay
// structurally identical without a shared coordinator.
//
// Representation. A tree is the root, held in the Tree, and one slab
// per expansion: the children of every alternative of one node, in one
// []Node, alternative after alternative, each child naming the
// alternative it belongs to. Their IDs are cut from one string, the
// space-separated list a snapshot writes for them. One index slice,
// sorted by ID, reaches every node: lookups are a binary search, and
// OpenNodes and the snapshot walk it in the order they write. A node
// never moves once made, so a *Node stays valid as the tree grows.

// NodeState is the lifecycle of one tree node.
type NodeState int

const (
	// StateOpen means the node's owner has not answered it yet.
	StateOpen NodeState = iota
	// StateComply means the owner will disclose a satisfying credential
	// freely (unprotected, or protected by a delivery rule).
	StateComply
	// StateExpanded means the owner protected the node with one or more
	// policies; the node's alternatives hold the resulting children.
	StateExpanded
	// StateDenied means the owner cannot or will not satisfy the term.
	StateDenied
)

func (s NodeState) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateComply:
		return "comply"
	case StateExpanded:
		return "expanded"
	case StateDenied:
		return "denied"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// RootID is the node ID of the negotiation's target resource.
const RootID = "r"

// Node is one term in the negotiation tree.
type Node struct {
	ID     string
	Term   xtnl.Term
	Owner  string // name of the party that must satisfy the term
	State  NodeState
	Parent string // "" for the root

	parent *Node
	// kids holds the children of every alternative policy (an edge),
	// alternative after alternative; ids holds their IDs, separated by
	// single spaces, and each child's ID is a substring of it.
	kids []Node
	ids  string
	alt  int // the alternative of the parent this node belongs to

	// What an Endpoint records about a node it owns; a bare Tree leaves
	// them zero, and a snapshot carries them.
	pick      candidate   // a COMPLY node's credential to disclose
	altPicks  []candidate // an EXPANDED node's candidate behind each alternative; non-nil once chosen
	disclosed bool        // the node's credential has been disclosed (sent or verified)
}

// NumAlts returns the number of alternatives (edges) of the node.
func (n *Node) NumAlts() int {
	if len(n.kids) == 0 {
		return 0
	}
	return n.kids[len(n.kids)-1].alt + 1
}

// Alt returns the children of alternative i, nil when there is none.
func (n *Node) Alt(i int) []Node {
	for lo, a := 0, 0; lo < len(n.kids); a++ {
		hi := n.altEnd(lo)
		if a == i {
			return n.kids[lo:hi:hi]
		}
		lo = hi
	}
	return nil
}

// altEnd returns the index in kids one past the alternative starting
// at lo.
func (n *Node) altEnd(lo int) int {
	hi := lo + 1
	for hi < len(n.kids) && n.kids[hi].alt == n.kids[lo].alt {
		hi++
	}
	return hi
}

// Multiedge reports whether alternative i is a multiedge.
func (n *Node) Multiedge(i int) bool { return len(n.Alt(i)) > 1 }

// Tree is one party's copy of the negotiation tree. It is used through
// a pointer and never copied: its index starts in its own array.
type Tree struct {
	root  Node
	index []*Node  // every node, sorted by ID
	first [8]*Node // index's backing array while the tree is small
}

// NewTree creates a tree rooted at the resource term owned by controller.
func NewTree(resource, controller string) *Tree {
	t := &Tree{root: Node{ID: RootID, Term: xtnl.Term{CredType: resource}, Owner: controller, State: StateOpen}}
	t.index = append(t.first[:0], &t.root)
	return t
}

// Node returns the node with the given ID, or nil.
func (t *Tree) Node(id string) *Node {
	if i, ok := t.search(id); ok {
		return t.index[i]
	}
	return nil
}

// search returns the position of id in the index and whether a node
// has it.
func (t *Tree) search(id string) (int, bool) {
	return slices.BinarySearchFunc(t.index, id, func(n *Node, id string) int { return strings.Compare(n.ID, id) })
}

// Root returns the root node.
func (t *Tree) Root() *Node { return &t.root }

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.index) }

// sameRequirement reports whether two requirements are the same for
// sequence deduplication and the mutual-requirement check: the same
// owner, credential type and conditions in any order. It allocates
// nothing.
func sameRequirement(owner string, term xtnl.Term, n *Node) bool {
	return owner == n.Owner && term.CredType == n.Term.CredType &&
		sameConditions(term.Conditions, n.Term.Conditions)
}

// sameConditions reports whether a and b hold the same conditions, each
// as often, in any order.
func sameConditions(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	if slices.Equal(a, b) {
		return true
	}
	for i, c := range a {
		if slices.Contains(a[:i], c) {
			continue // counted at its first occurrence
		}
		if occurrences(a, c) != occurrences(b, c) {
			return false
		}
	}
	return true
}

func occurrences(list []string, s string) int {
	n := 0
	for _, x := range list {
		if x == s {
			n++
		}
	}
	return n
}

// HasAncestorTerm reports whether any proper ancestor of node id carries
// the same owner and term — the mutual-requirement detector: a policy
// chain that re-requests a requirement already committed on the path is
// answered COMPLY (the disclosure is shared with the ancestor; the trust
// sequence dedupes it), resolving interlocks like the paper's §5.1
// "PrivacyRegulator ← PrivacyRegulator" without unbounded expansion.
func (t *Tree) HasAncestorTerm(id string, owner string, term xtnl.Term) bool {
	n := t.Node(id)
	if n == nil {
		return false
	}
	for p := n.parent; p != nil; p = p.parent {
		if sameRequirement(owner, term, p) {
			return true
		}
	}
	return false
}

// Deny marks the node denied.
func (t *Tree) Deny(id string) error {
	n := t.Node(id)
	if n == nil {
		return fmt.Errorf("negotiation: deny unknown node %s", id)
	}
	n.State = StateDenied
	return nil
}

// Comply marks the node freely satisfiable.
func (t *Tree) Comply(id string) error {
	n := t.Node(id)
	if n == nil {
		return fmt.Errorf("negotiation: comply unknown node %s", id)
	}
	n.State = StateComply
	return nil
}

// Expand applies policy alternatives to the node: alternative i consists
// of terms owned by counterOwner (the other party). Children get
// deterministic IDs "<id>.<alt>.<term>" and state Open. It returns the
// children in creation order: the node's slab, which the tree keeps.
func (t *Tree) Expand(id string, alternatives [][]xtnl.Term, counterOwner string) ([]Node, error) {
	n := t.Node(id)
	if n == nil {
		return nil, fmt.Errorf("negotiation: expand unknown node %s", id)
	}
	if n.State != StateOpen {
		return nil, fmt.Errorf("negotiation: expand node %s in state %s", id, n.State)
	}
	if len(alternatives) == 0 {
		return nil, fmt.Errorf("negotiation: expand node %s with no alternatives", id)
	}
	total, size := 0, 0
	for ai, terms := range alternatives {
		if len(terms) == 0 {
			return nil, fmt.Errorf("negotiation: node %s alternative %d has no terms", id, ai)
		}
		total += len(terms)
		for ti := range terms {
			size += len(n.ID) + 3 + decimalLen(ai) + decimalLen(ti) // "<id>.<ai>.<ti> "
		}
	}
	var b strings.Builder
	b.Grow(size - 1)
	for ai, terms := range alternatives {
		for ti := range terms {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(n.ID)
			b.WriteByte('.')
			writeDecimal(&b, ai)
			b.WriteByte('.')
			writeDecimal(&b, ti)
		}
	}
	ids := b.String()
	kids := make([]Node, total)
	k, off := 0, 0
	for ai, terms := range alternatives {
		for ti, term := range terms {
			end := off + len(n.ID) + 2 + decimalLen(ai) + decimalLen(ti)
			kids[k] = Node{ID: ids[off:end], Term: term, Owner: counterOwner, State: StateOpen, Parent: n.ID, parent: n, alt: ai}
			if _, dup := t.search(kids[k].ID); dup {
				return nil, fmt.Errorf("negotiation: expand node %s: node %s exists", id, kids[k].ID)
			}
			k, off = k+1, end+1
		}
	}
	n.kids, n.ids, n.State = kids, ids, StateExpanded
	for i := range kids {
		t.insert(&kids[i])
	}
	return kids, nil
}

// insert adds n to the index at its place in ID order.
func (t *Tree) insert(n *Node) {
	i, _ := t.search(n.ID)
	t.index = slices.Insert(t.index, i, n)
}

func decimalLen(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

func writeDecimal(b *strings.Builder, v int) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], int64(v), 10))
}

// OpenNodes returns the IDs of unanswered nodes owned by owner, in
// deterministic (sorted) order.
func (t *Tree) OpenNodes(owner string) []string {
	var out []string
	for _, n := range t.appendOpen(nil, owner) {
		out = append(out, n.ID)
	}
	return out
}

// appendOpen appends the unanswered nodes owned by owner to dst, in ID
// order.
func (t *Tree) appendOpen(dst []*Node, owner string) []*Node {
	for _, n := range t.index {
		if n.State == StateOpen && n.Owner == owner {
			dst = append(dst, n)
		}
	}
	return dst
}

// Complete reports whether every node has been answered.
func (t *Tree) Complete() bool {
	for _, n := range t.index {
		if n.State == StateOpen {
			return false
		}
	}
	return true
}

// Satisfiable reports whether the subtree rooted at id can succeed:
// a Comply leaf, or an Expanded node with at least one alternative whose
// children are all satisfiable. Open and Denied nodes are unsatisfiable.
func (t *Tree) Satisfiable(id string) bool {
	n := t.Node(id)
	return n != nil && n.satisfiable()
}

func (n *Node) satisfiable() bool {
	switch n.State {
	case StateComply:
		return true
	case StateExpanded:
		return n.chosenAlt() >= 0
	}
	return false
}

// ChosenAlt returns the index of the first satisfiable alternative of
// an expanded node — the view choice Sequence commits to — or -1 when
// the node is not expanded or not satisfiable.
func (t *Tree) ChosenAlt(id string) int {
	n := t.Node(id)
	if n == nil || n.State != StateExpanded {
		return -1
	}
	return n.chosenAlt()
}

// chosenAlt returns the index of the first alternative whose children
// are all satisfiable, or -1.
func (n *Node) chosenAlt() int {
	for lo := 0; lo < len(n.kids); {
		hi := n.altEnd(lo)
		if allSatisfiable(n.kids[lo:hi]) {
			return n.kids[lo].alt
		}
		lo = hi
	}
	return -1
}

func allSatisfiable(kids []Node) bool {
	for i := range kids {
		if !kids[i].satisfiable() {
			return false
		}
	}
	return true
}

// Dead reports whether the subtree rooted at id can no longer succeed:
// the node is denied, or it is expanded and every alternative contains a
// dead child. Open nodes are not dead (still undetermined).
func (t *Tree) Dead(id string) bool {
	n := t.Node(id)
	return n == nil || n.dead()
}

func (n *Node) dead() bool {
	switch n.State {
	case StateDenied:
		return true
	case StateExpanded:
		for lo := 0; lo < len(n.kids); {
			hi := n.altEnd(lo)
			if !anyDead(n.kids[lo:hi]) {
				return false
			}
			lo = hi
		}
		return true
	}
	return false
}

func anyDead(kids []Node) bool {
	for i := range kids {
		if kids[i].dead() {
			return true
		}
	}
	return false
}

// SequenceEntry is one step of a trust sequence: the node whose
// credential its owner must disclose at that position.
type SequenceEntry struct {
	NodeID string
	Owner  string
	Term   xtnl.Term

	node *Node
}

// Sequence computes the trust sequence of the first satisfiable view:
// for every node, the first satisfiable alternative is chosen (the view),
// and disclosures are ordered child-before-parent (post-order), so each
// credential's preconditions are already satisfied when it is sent. The
// root itself — the negotiated resource — is excluded: its release is
// the success of the negotiation. Duplicate requirements (same owner and
// term) appear once, at their earliest position.
//
// Both parties compute this from their mirror trees and obtain the same
// sequence; it returns nil when the tree is not satisfiable.
func (t *Tree) Sequence() []SequenceEntry {
	if !t.root.satisfiable() {
		return nil
	}
	size := viewSize(&t.root)
	if size == 0 {
		return nil // a root answered COMPLY: satisfiable, nothing to disclose
	}
	return appendView(make([]SequenceEntry, 0, size), &t.root)
}

// viewSize counts the nodes below n in the first satisfiable view.
func viewSize(n *Node) int {
	size := 0
	if n.State == StateExpanded {
		if ai := n.chosenAlt(); ai >= 0 {
			kids := n.Alt(ai)
			for i := range kids {
				size += 1 + viewSize(&kids[i])
			}
		}
	}
	return size
}

// appendView appends the view below n, then n itself unless it is the
// root or its requirement is already in out.
func appendView(out []SequenceEntry, n *Node) []SequenceEntry {
	if n.State == StateExpanded {
		if ai := n.chosenAlt(); ai >= 0 {
			kids := n.Alt(ai)
			for i := range kids {
				out = appendView(out, &kids[i])
			}
		}
	}
	if n.parent == nil {
		return out
	}
	for i := range out {
		if sameRequirement(n.Owner, n.Term, out[i].node) {
			return out
		}
	}
	return append(out, SequenceEntry{NodeID: n.ID, Owner: n.Owner, Term: n.Term, node: n})
}

// String renders the tree for debugging and for the Fig. 2 example test:
// nested nodes with owner, state and multiedge markers.
func (t *Tree) String() string {
	var b strings.Builder
	var render func(n *Node, depth int)
	render = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%s%s [%s, %s] %s\n", strings.Repeat("  ", depth), n.Term.String(), n.Owner, n.State, n.ID)
		for ai := range n.NumAlts() {
			alt := n.Alt(ai)
			marker := "edge"
			if len(alt) > 1 {
				marker = "multiedge"
			}
			fmt.Fprintf(&b, "%s|- alt %d (%s)\n", strings.Repeat("  ", depth+1), ai, marker)
			for i := range alt {
				render(&alt[i], depth+2)
			}
		}
	}
	render(&t.root, 0)
	return b.String()
}
