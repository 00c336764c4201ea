package negotiation

import (
	"fmt"
	"slices"
	"sort"
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
	ID    string
	Term  xtnl.Term
	Owner string // name of the party that must satisfy the term
	State NodeState
	// Alts holds, per alternative policy (an edge), the IDs of the
	// children the policy requires. len(Alts[i]) > 1 is a multiedge.
	Alts   [][]string
	Parent string // "" for the root
}

// Multiedge reports whether alternative i is a multiedge.
func (n *Node) Multiedge(i int) bool { return i < len(n.Alts) && len(n.Alts[i]) > 1 }

// Tree is one party's copy of the negotiation tree.
type Tree struct {
	nodes map[string]*Node
}

// NewTree creates a tree rooted at the resource term owned by controller.
func NewTree(resource, controller string) *Tree {
	t := &Tree{nodes: make(map[string]*Node)}
	t.nodes[RootID] = &Node{
		ID:    RootID,
		Term:  xtnl.Term{CredType: resource},
		Owner: controller,
		State: StateOpen,
	}
	return t
}

// Node returns the node with the given ID, or nil.
func (t *Tree) Node(id string) *Node { return t.nodes[id] }

// Root returns the root node.
func (t *Tree) Root() *Node { return t.nodes[RootID] }

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.nodes) }

// termKey is the identity of a requirement for sequence deduplication:
// owner, credential type and the conditions in sorted order.
func termKey(owner string, term xtnl.Term) string {
	if len(term.Conditions) == 0 {
		return owner + "\x00" + term.CredType
	}
	return owner + "\x00" + term.CredType + "\x01" + strings.Join(sortedConditions(term.Conditions), "\x01")
}

// sortedConditions returns conds in sorted order: conds itself when it
// is sorted, else a sorted copy.
func sortedConditions(conds []string) []string {
	if slices.IsSorted(conds) {
		return conds
	}
	sorted := slices.Clone(conds)
	slices.Sort(sorted)
	return sorted
}

// sameRequirement reports whether the requirement owner/term is n's, as
// termKey sees them: the same owner, credential type and conditions in
// any order. It builds no key, and allocates nothing when both condition
// lists are sorted.
func sameRequirement(owner string, term xtnl.Term, n *Node) bool {
	return owner == n.Owner && term.CredType == n.Term.CredType &&
		len(term.Conditions) == len(n.Term.Conditions) &&
		slices.Equal(sortedConditions(term.Conditions), sortedConditions(n.Term.Conditions))
}

// HasAncestorTerm reports whether any proper ancestor of node id carries
// the same owner and term — the mutual-requirement detector: a policy
// chain that re-requests a requirement already committed on the path is
// answered COMPLY (the disclosure is shared with the ancestor; the trust
// sequence dedupes it), resolving interlocks like the paper's §5.1
// "PrivacyRegulator ← PrivacyRegulator" without unbounded expansion.
func (t *Tree) HasAncestorTerm(id string, owner string, term xtnl.Term) bool {
	n := t.nodes[id]
	if n == nil {
		return false
	}
	for cur := n.Parent; cur != ""; {
		p := t.nodes[cur]
		if p == nil {
			return false
		}
		if sameRequirement(owner, term, p) {
			return true
		}
		cur = p.Parent
	}
	return false
}

// Deny marks the node denied.
func (t *Tree) Deny(id string) error {
	n := t.nodes[id]
	if n == nil {
		return fmt.Errorf("negotiation: deny unknown node %s", id)
	}
	n.State = StateDenied
	return nil
}

// Comply marks the node freely satisfiable.
func (t *Tree) Comply(id string) error {
	n := t.nodes[id]
	if n == nil {
		return fmt.Errorf("negotiation: comply unknown node %s", id)
	}
	n.State = StateComply
	return nil
}

// Expand applies policy alternatives to the node: alternative i consists
// of terms owned by counterOwner (the other party). Children get
// deterministic IDs "<id>.<alt>.<term>" and state Open. It returns the
// created children in creation order.
func (t *Tree) Expand(id string, alternatives [][]xtnl.Term, counterOwner string) ([]*Node, error) {
	n := t.nodes[id]
	if n == nil {
		return nil, fmt.Errorf("negotiation: expand unknown node %s", id)
	}
	if n.State != StateOpen {
		return nil, fmt.Errorf("negotiation: expand node %s in state %s", id, n.State)
	}
	if len(alternatives) == 0 {
		return nil, fmt.Errorf("negotiation: expand node %s with no alternatives", id)
	}
	total := 0
	for _, terms := range alternatives {
		total += len(terms)
	}
	created := make([]*Node, 0, total)
	kids := make([]Node, total) // one allocation for every child
	for ai, terms := range alternatives {
		if len(terms) == 0 {
			return nil, fmt.Errorf("negotiation: node %s alternative %d has no terms", id, ai)
		}
		ids := make([]string, 0, len(terms))
		for ti, term := range terms {
			cid := id + "." + strconv.Itoa(ai) + "." + strconv.Itoa(ti)
			child := &kids[len(created)]
			*child = Node{
				ID:     cid,
				Term:   term,
				Owner:  counterOwner,
				State:  StateOpen,
				Parent: id,
			}
			t.nodes[cid] = child
			ids = append(ids, cid)
			created = append(created, child)
		}
		n.Alts = append(n.Alts, ids)
	}
	n.State = StateExpanded
	return created, nil
}

// OpenNodes returns the IDs of unanswered nodes owned by owner, in
// deterministic (sorted) order.
func (t *Tree) OpenNodes(owner string) []string {
	var out []string
	for id, n := range t.nodes {
		if n.State == StateOpen && n.Owner == owner {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Complete reports whether every node has been answered.
func (t *Tree) Complete() bool {
	for _, n := range t.nodes {
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
	n := t.nodes[id]
	if n == nil {
		return false
	}
	switch n.State {
	case StateComply:
		return true
	case StateExpanded:
		for ai := range n.Alts {
			if t.altSatisfiable(n, ai) {
				return true
			}
		}
	}
	return false
}

// ChosenAlt returns the index of the first satisfiable alternative of
// an expanded node — the view choice Sequence commits to — or -1 when
// the node is not expanded or not satisfiable.
func (t *Tree) ChosenAlt(id string) int {
	n := t.nodes[id]
	if n == nil || n.State != StateExpanded {
		return -1
	}
	for ai := range n.Alts {
		if t.altSatisfiable(n, ai) {
			return ai
		}
	}
	return -1
}

func (t *Tree) altSatisfiable(n *Node, ai int) bool {
	for _, cid := range n.Alts[ai] {
		if !t.Satisfiable(cid) {
			return false
		}
	}
	return true
}

// SequenceEntry is one step of a trust sequence: the node whose
// credential its owner must disclose at that position.
type SequenceEntry struct {
	NodeID string
	Owner  string
	Term   xtnl.Term
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
	if !t.Satisfiable(RootID) {
		return nil
	}
	var out []SequenceEntry
	seen := make(map[string]bool)
	var visit func(id string)
	visit = func(id string) {
		n := t.nodes[id]
		if n.State == StateExpanded {
			for ai := range n.Alts {
				if !t.altSatisfiable(n, ai) {
					continue
				}
				for _, cid := range n.Alts[ai] {
					visit(cid)
				}
				break
			}
		}
		if id == RootID {
			return
		}
		key := termKey(n.Owner, n.Term)
		if !seen[key] {
			seen[key] = true
			out = append(out, SequenceEntry{NodeID: id, Owner: n.Owner, Term: n.Term})
		}
	}
	visit(RootID)
	return out
}

// String renders the tree for debugging and for the Fig. 2 example test:
// nested nodes with owner, state and multiedge markers.
func (t *Tree) String() string {
	var b strings.Builder
	var render func(id string, depth int)
	render = func(id string, depth int) {
		n := t.nodes[id]
		fmt.Fprintf(&b, "%s%s [%s, %s] %s\n", strings.Repeat("  ", depth), n.Term.String(), n.Owner, n.State, n.ID)
		for ai, alt := range n.Alts {
			marker := "edge"
			if len(alt) > 1 {
				marker = "multiedge"
			}
			fmt.Fprintf(&b, "%s|- alt %d (%s)\n", strings.Repeat("  ", depth+1), ai, marker)
			for _, cid := range alt {
				render(cid, depth+2)
			}
		}
	}
	render(RootID, 0)
	return b.String()
}
