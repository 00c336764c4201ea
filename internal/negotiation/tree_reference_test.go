package negotiation

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// refTree is the map-based negotiation tree the slab-built Tree
// replaced, kept as the oracle FuzzTreeMatchesReference checks it
// against: the same operations must give the same answers and the same
// snapshot bytes. Its code is the replaced tree.go, renamed.

// refNode is one term in the negotiation tree.
type refNode struct {
	ID    string
	Term  xtnl.Term
	Owner string // name of the party that must satisfy the term
	State NodeState
	// Alts holds, per alternative policy (an edge), the IDs of the
	// children the policy requires. len(Alts[i]) > 1 is a multiedge.
	Alts   [][]string
	Parent string // "" for the root
}

// multiedge reports whether alternative i is a multiedge.
func (n *refNode) multiedge(i int) bool { return i < len(n.Alts) && len(n.Alts[i]) > 1 }

// refTree is one party's copy of the negotiation tree.
type refTree struct {
	nodes map[string]*refNode
}

// newRefTree creates a tree rooted at the resource term owned by controller.
func newRefTree(resource, controller string) *refTree {
	t := &refTree{nodes: make(map[string]*refNode)}
	t.nodes[RootID] = &refNode{
		ID:    RootID,
		Term:  xtnl.Term{CredType: resource},
		Owner: controller,
		State: StateOpen,
	}
	return t
}

// Node returns the node with the given ID, or nil.
func (t *refTree) Node(id string) *refNode { return t.nodes[id] }

// Root returns the root node.
func (t *refTree) Root() *refNode { return t.nodes[RootID] }

// Len returns the number of nodes.
func (t *refTree) Len() int { return len(t.nodes) }

// refTermKey is the identity of a requirement for sequence deduplication:
// owner, credential type and the conditions in sorted order.
func refTermKey(owner string, term xtnl.Term) string {
	if len(term.Conditions) == 0 {
		return owner + "\x00" + term.CredType
	}
	return owner + "\x00" + term.CredType + "\x01" + strings.Join(refSortedConditions(term.Conditions), "\x01")
}

// refSortedConditions returns conds in sorted order: conds itself when it
// is sorted, else a sorted copy.
func refSortedConditions(conds []string) []string {
	if slices.IsSorted(conds) {
		return conds
	}
	sorted := slices.Clone(conds)
	slices.Sort(sorted)
	return sorted
}

// refSameRequirement reports whether the requirement owner/term is n's, as
// termKey sees them: the same owner, credential type and conditions in
// any order. It builds no key, and allocates nothing when both condition
// lists are sorted.
func refSameRequirement(owner string, term xtnl.Term, n *refNode) bool {
	return owner == n.Owner && term.CredType == n.Term.CredType &&
		len(term.Conditions) == len(n.Term.Conditions) &&
		slices.Equal(refSortedConditions(term.Conditions), refSortedConditions(n.Term.Conditions))
}

// HasAncestorTerm reports whether any proper ancestor of node id carries
// the same owner and term — the mutual-requirement detector: a policy
// chain that re-requests a requirement already committed on the path is
// answered COMPLY (the disclosure is shared with the ancestor; the trust
// sequence dedupes it), resolving interlocks like the paper's §5.1
// "PrivacyRegulator ← PrivacyRegulator" without unbounded expansion.
func (t *refTree) HasAncestorTerm(id string, owner string, term xtnl.Term) bool {
	n := t.nodes[id]
	if n == nil {
		return false
	}
	for cur := n.Parent; cur != ""; {
		p := t.nodes[cur]
		if p == nil {
			return false
		}
		if refSameRequirement(owner, term, p) {
			return true
		}
		cur = p.Parent
	}
	return false
}

// Deny marks the node denied.
func (t *refTree) Deny(id string) error {
	n := t.nodes[id]
	if n == nil {
		return fmt.Errorf("negotiation: deny unknown node %s", id)
	}
	n.State = StateDenied
	return nil
}

// Comply marks the node freely satisfiable.
func (t *refTree) Comply(id string) error {
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
func (t *refTree) Expand(id string, alternatives [][]xtnl.Term, counterOwner string) ([]*refNode, error) {
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
	created := make([]*refNode, 0, total)
	kids := make([]refNode, total) // one allocation for every child
	for ai, terms := range alternatives {
		if len(terms) == 0 {
			return nil, fmt.Errorf("negotiation: node %s alternative %d has no terms", id, ai)
		}
		ids := make([]string, 0, len(terms))
		for ti, term := range terms {
			cid := id + "." + strconv.Itoa(ai) + "." + strconv.Itoa(ti)
			child := &kids[len(created)]
			*child = refNode{
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
func (t *refTree) OpenNodes(owner string) []string {
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
func (t *refTree) Complete() bool {
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
func (t *refTree) Satisfiable(id string) bool {
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
func (t *refTree) ChosenAlt(id string) int {
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

func (t *refTree) altSatisfiable(n *refNode, ai int) bool {
	for _, cid := range n.Alts[ai] {
		if !t.Satisfiable(cid) {
			return false
		}
	}
	return true
}

// refEntry is one step of a trust sequence: the node whose
// credential its owner must disclose at that position.
type refEntry struct {
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
func (t *refTree) Sequence() []refEntry {
	if !t.Satisfiable(RootID) {
		return nil
	}
	var out []refEntry
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
		key := refTermKey(n.Owner, n.Term)
		if !seen[key] {
			seen[key] = true
			out = append(out, refEntry{NodeID: id, Owner: n.Owner, Term: n.Term})
		}
	}
	visit(RootID)
	return out
}

// Dead is the replaced Tree.Dead.
func (t *refTree) Dead(id string) bool {
	n := t.nodes[id]
	if n == nil {
		return true
	}
	switch n.State {
	case StateDenied:
		return true
	case StateExpanded:
		for ai := range n.Alts {
			altDead := false
			for _, cid := range n.Alts[ai] {
				if t.Dead(cid) {
					altDead = true
					break
				}
			}
			if !altDead {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// refEncodeTree is the replaced encodeTree.
func refEncodeTree(w *xmldom.Writer, t *refTree) {
	w.Start("tree")
	ids := make([]string, 0, len(t.nodes))
	for id := range t.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
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

// FuzzTreeMatchesReference applies one random sequence of Expand,
// Comply and Deny calls to a Tree and to refTree: after every call both
// must agree on errors, nodes, OpenNodes, Complete, Satisfiable,
// ChosenAlt, Dead, HasAncestorTerm, Sequence and the snapshot's tree
// bytes; and the tree restored from those bytes must write them again.
func FuzzTreeMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 2, 1, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(bytes.Repeat([]byte{0, 3, 2, 2, 1, 7, 1, 4, 2, 9}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &treeGen{data: data}
		tr, ref := NewTree("R", "P"), newRefTree("R", "P")
		for steps := 0; steps < 40 && len(g.data) > 0; steps++ {
			ids := ref.sortedIDs()
			id := ids[g.next(len(ids))]
			if g.next(8) == 0 {
				id += ".x" // no such node
			}
			var err, refErr error
			switch op := g.next(3); op {
			case 0:
				alts := g.alternatives()
				owner := []string{"P", "Q"}[g.next(2)]
				_, err = tr.Expand(id, alts, owner)
				_, refErr = ref.Expand(id, alts, owner)
			case 1:
				err, refErr = tr.Comply(id), ref.Comply(id)
			case 2:
				err, refErr = tr.Deny(id), ref.Deny(id)
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("step %d on %s: error %v, reference %v", steps, id, err, refErr)
			}
			compareTrees(t, tr, ref, g)
		}
		snap := xmldom.String(func(w *xmldom.Writer) { encodeTree(w, tr) })
		dom, err := xmldom.ParseString(snap)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := restoreTree(dom)
		if err != nil {
			t.Fatalf("restoring %s: %v", snap, err)
		}
		compareTrees(t, restored, ref, g)
	})
}

// treeGen draws choices from fuzz bytes.
type treeGen struct{ data []byte }

func (g *treeGen) next(n int) int {
	if len(g.data) == 0 || n <= 1 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

func (g *treeGen) alternatives() [][]xtnl.Term {
	alts := make([][]xtnl.Term, 1+g.next(3))
	for i := range alts {
		terms := make([]xtnl.Term, 1+g.next(3))
		for j := range terms {
			terms[j].CredType = []string{"A", "B", "C", "$any"}[g.next(4)]
			conds := []string{"c1", "c2", "c1"}
			for k := g.next(3); k > 0; k-- {
				terms[j].Conditions = append(terms[j].Conditions, conds[g.next(3)])
			}
		}
		alts[i] = terms
	}
	return alts
}

func (t *refTree) sortedIDs() []string {
	ids := make([]string, 0, len(t.nodes))
	for id := range t.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func compareTrees(t *testing.T, tr *Tree, ref *refTree, g *treeGen) {
	t.Helper()
	ids := ref.sortedIDs()
	if tr.Len() != len(ids) {
		t.Fatalf("%d nodes, reference %d", tr.Len(), len(ids))
	}
	for i, n := range tr.index {
		if n.ID != ids[i] || tr.Node(n.ID) != n {
			t.Fatalf("node %d is %s, reference %s", i, n.ID, ids[i])
		}
		r := ref.Node(n.ID)
		if n.Owner != r.Owner || n.State != r.State || n.Parent != r.Parent || n.Term.CredType != r.Term.CredType ||
			!slices.Equal(n.Term.Conditions, r.Term.Conditions) || n.NumAlts() != len(r.Alts) {
			t.Fatalf("node %s: %+v, reference %+v", n.ID, n, r)
		}
		for ai, alt := range r.Alts {
			if got := n.Alt(ai); len(got) != len(alt) || n.Multiedge(ai) != r.multiedge(ai) {
				t.Fatalf("node %s alternative %d: %d children, reference %v", n.ID, ai, len(got), alt)
			}
			for k, cid := range alt {
				if n.Alt(ai)[k].ID != cid {
					t.Fatalf("node %s alternative %d child %d: %s, reference %s", n.ID, ai, k, n.Alt(ai)[k].ID, cid)
				}
			}
		}
		if tr.Satisfiable(n.ID) != ref.Satisfiable(n.ID) || tr.ChosenAlt(n.ID) != ref.ChosenAlt(n.ID) || tr.Dead(n.ID) != ref.Dead(n.ID) {
			t.Fatalf("node %s: satisfiable %v, chosen %d, dead %v; reference %v, %d, %v", n.ID,
				tr.Satisfiable(n.ID), tr.ChosenAlt(n.ID), tr.Dead(n.ID), ref.Satisfiable(n.ID), ref.ChosenAlt(n.ID), ref.Dead(n.ID))
		}
		owner := []string{"P", "Q"}[g.next(2)]
		term := xtnl.Term{CredType: []string{"A", "B", "C", "$any"}[g.next(4)], Conditions: []string{"c2", "c1"}[:g.next(3)]}
		if tr.HasAncestorTerm(n.ID, owner, term) != ref.HasAncestorTerm(n.ID, owner, term) ||
			tr.HasAncestorTerm(n.ID, n.Owner, n.Term) != ref.HasAncestorTerm(n.ID, r.Owner, r.Term) {
			t.Fatalf("node %s: HasAncestorTerm disagrees", n.ID)
		}
	}
	for _, owner := range []string{"P", "Q", ""} {
		if got, want := tr.OpenNodes(owner), ref.OpenNodes(owner); !slices.Equal(got, want) {
			t.Fatalf("OpenNodes(%q) = %v, reference %v", owner, got, want)
		}
	}
	if tr.Complete() != ref.Complete() {
		t.Fatalf("Complete = %v, reference %v", tr.Complete(), ref.Complete())
	}
	seq, refSeq := tr.Sequence(), ref.Sequence()
	if (seq == nil) != (refSeq == nil) || len(seq) != len(refSeq) {
		t.Fatalf("Sequence = %+v, reference %+v", seq, refSeq)
	}
	for i, s := range seq {
		r := refSeq[i]
		if s.NodeID != r.NodeID || s.Owner != r.Owner || s.Term.CredType != r.Term.CredType || !slices.Equal(s.Term.Conditions, r.Term.Conditions) || s.node != tr.Node(s.NodeID) {
			t.Fatalf("Sequence[%d] = %+v, reference %+v", i, s, r)
		}
	}
	got := xmldom.String(func(w *xmldom.Writer) { encodeTree(w, tr) })
	want := xmldom.String(func(w *xmldom.Writer) { refEncodeTree(w, ref) })
	if got != want {
		t.Fatalf("snapshot tree:\n got  %s\n want %s", got, want)
	}
}
