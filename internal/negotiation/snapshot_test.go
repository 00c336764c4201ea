package negotiation

import (
	"encoding/base64"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// reserialize round-trips an endpoint through the XML text of its
// snapshot — exactly what a resume ticket or the server-side suspend
// store does — and returns the restored endpoint. Endpoints that cannot
// be snapshotted yet (no tree before the first policy message) are
// returned unchanged.
func reserialize(t *testing.T, ep *Endpoint) *Endpoint {
	t.Helper()
	dom, err := ep.SnapshotDOM()
	if err != nil {
		if ep.tree == nil {
			return ep
		}
		t.Fatal(err)
	}
	doc, err := xmldom.ParseString(dom.XML())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEndpoint(ep.party, doc)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// countMessages runs the §5.1 negotiation to completion and returns how
// many messages were delivered.
func countMessages(t *testing.T) int {
	t.Helper()
	f := newFixture(t)
	rq := NewRequester(f.aerospace, "VoMembership")
	ct := NewController(f.aircraft)
	msg, err := rq.Start()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	to := ct
	other := rq
	for msg != nil {
		total++
		if msg, err = to.Handle(msg); err != nil {
			t.Fatal(err)
		}
		to, other = other, to
	}
	if !rq.Outcome().Succeeded {
		t.Fatalf("baseline negotiation failed: %s", rq.Outcome().Reason)
	}
	return total
}

// TestSnapshotRoundTripMidNegotiation interrupts the negotiation at
// every message boundary — covering both the policy-evaluation and the
// credential-exchange phase — round-trips both live endpoints through
// their XML snapshots, and completes the run on the restored endpoints.
func TestSnapshotRoundTripMidNegotiation(t *testing.T) {
	total := countMessages(t)
	if total < 4 {
		t.Fatalf("scenario too short to interrupt meaningfully: %d messages", total)
	}
	for cut := 1; cut < total; cut++ {
		f := newFixture(t)
		eps := [2]*Endpoint{NewRequester(f.aerospace, "VoMembership"), NewController(f.aircraft)}
		msg, err := eps[0].Start()
		if err != nil {
			t.Fatal(err)
		}
		sender := 0
		for n := 0; msg != nil; n++ {
			if n == cut {
				for i := range eps {
					if !eps[i].Done() {
						eps[i] = reserialize(t, eps[i])
					}
				}
			}
			recv := 1 - sender
			if msg, err = eps[recv].Handle(msg); err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
			sender = recv
		}
		for i, role := range []string{"requester", "controller"} {
			if !eps[i].Done() {
				t.Fatalf("cut=%d: %s not done after restore", cut, role)
			}
			if out := eps[i].Outcome(); !out.Succeeded {
				t.Fatalf("cut=%d: %s failed after restore: %s", cut, role, out.Reason)
			}
		}
		// the restored requester still collected the disclosures
		if out := eps[0].Outcome(); len(out.Sent) == 0 {
			t.Fatalf("cut=%d: restored requester lost its disclosure record", cut)
		}
	}
}

// TestSnapshotRejectsFinishedEndpoint pins the ErrSnapshotDone contract:
// a completed negotiation has nothing to resume.
func TestSnapshotRejectsFinishedEndpoint(t *testing.T) {
	f := newFixture(t)
	rq := NewRequester(f.aerospace, "VoMembership")
	ct := NewController(f.aircraft)
	msg, err := rq.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := Drive(rq, ct, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := rq.SnapshotDOM(); !errors.Is(err, ErrSnapshotDone) {
		t.Fatalf("snapshot of finished endpoint: %v", err)
	}
}

// TestRestoreRejectsMissingCredential verifies the failure mode the
// suspend store must tolerate: a snapshot referencing a credential the
// restoring party no longer holds is refused rather than silently
// continued.
func TestRestoreRejectsMissingCredential(t *testing.T) {
	total := countMessages(t)
	f := newFixture(t)
	prof := xtnl.NewProfile(f.aerospace.Name)
	for _, c := range f.aerospace.Profile.All() {
		if c.ID != f.wdqCred.ID {
			prof.Add(c)
		}
	}
	bare := &Party{
		Name:     f.aerospace.Name,
		Profile:  prof,
		Policies: f.aerospace.Policies,
		Trust:    f.aerospace.Trust,
	}
	// Interrupt at every boundary; once the requester has committed to
	// disclosing its quality credential, restoring without it must fail.
	rejected := false
	for cut := 1; cut < total; cut++ {
		eps := [2]*Endpoint{NewRequester(f.aerospace, "VoMembership"), NewController(f.aircraft)}
		msg, err := eps[0].Start()
		if err != nil {
			t.Fatal(err)
		}
		sender := 0
		for n := 0; n < cut && msg != nil; n++ {
			recv := 1 - sender
			if msg, err = eps[recv].Handle(msg); err != nil {
				t.Fatal(err)
			}
			sender = recv
		}
		if eps[0].Done() || eps[0].tree == nil {
			continue
		}
		dom, err := eps[0].SnapshotDOM()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreEndpoint(bare, dom); err != nil {
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("no interruption point rejected the restore despite the missing credential")
	}
}

// refSnapshotDOM, refTreeDOM and refDisclosedDOM are the node-by-node
// builders SnapshotDOM used before EncodeSnapshot wrote its layout
// through xmldom.Writer; FuzzEncodeSnapshot diffs the two.

func refSnapshotDOM(e *Endpoint) *xmldom.Node {
	root := xmldom.NewElement("negotiationState").
		SetAttr("role", e.role.String()).
		SetAttr("resource", e.resource).
		SetAttr("peer", e.peer).
		SetAttr("phase", phaseName(e.phase)).
		SetAttr("rounds", strconv.Itoa(e.rounds)).
		SetAttr("seqPos", strconv.Itoa(e.seqPos))
	if e.peerProof {
		root.SetAttr("peerProof", "true")
	}
	if len(e.lastNonceRecv) > 0 {
		root.SetAttr("nonceRecv", base64.StdEncoding.EncodeToString(e.lastNonceRecv))
	}
	if len(e.lastNonceSent) > 0 {
		root.SetAttr("nonceSent", base64.StdEncoding.EncodeToString(e.lastNonceSent))
	}
	root.AppendChild(refTreeDOM(e.tree))
	// The endpoint's per-node records, gathered into the maps the
	// endpoint kept before they moved onto the nodes.
	disclosed := map[string]bool{}
	chosen := map[string]candidate{}
	chosenAlts := map[string][]candidate{}
	for _, n := range e.tree.index {
		if n.disclosed {
			disclosed[n.ID] = true
		}
		if n.pick.cred != nil {
			chosen[n.ID] = n.pick
		}
		if n.altPicks != nil {
			chosenAlts[n.ID] = n.altPicks
		}
	}
	if len(disclosed) > 0 {
		ids := make([]string, 0, len(disclosed))
		for id, ok := range disclosed {
			if ok {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		d := xmldom.NewElement("disclosed")
		d.AppendChild(xmldom.NewText(strings.Join(ids, " ")))
		root.AppendChild(d)
	}
	for _, id := range refSortedKeys(chosen) {
		root.AppendChild(xmldom.NewElement("chosen").
			SetAttr("node", id).
			SetAttr("credential", chosen[id].cred.ID))
	}
	for _, id := range refSortedKeys(chosenAlts) {
		ca := xmldom.NewElement("chosenAlts").SetAttr("node", id)
		for _, c := range chosenAlts[id] {
			cand := xmldom.NewElement("cand")
			if c.cred != nil {
				cand.SetAttr("credential", c.cred.ID)
			}
			ca.AppendChild(cand)
		}
		root.AppendChild(ca)
	}
	if e.outcome != nil && (len(e.outcome.Received) > 0 || len(e.outcome.Sent) > 0) {
		out := xmldom.NewElement("partialOutcome")
		for _, d := range e.outcome.Received {
			out.AppendChild(refDisclosedDOM("received", d))
		}
		for _, d := range e.outcome.Sent {
			out.AppendChild(refDisclosedDOM("sent", d))
		}
		root.AppendChild(out)
	}
	return root
}

func refTreeDOM(t *Tree) *xmldom.Node {
	root := xmldom.NewElement("tree")
	nodes := map[string]*Node{}
	for _, n := range t.index {
		nodes[n.ID] = n
	}
	for _, id := range refSortedKeys(nodes) {
		n := nodes[id]
		nd := xmldom.NewElement("node").
			SetAttr("id", n.ID).
			SetAttr("credType", n.Term.CredType).
			SetAttr("owner", n.Owner).
			SetAttr("state", n.State.String())
		if n.Parent != "" {
			nd.SetAttr("parent", n.Parent)
		}
		for _, c := range n.Term.Conditions {
			cond := xmldom.NewElement("cond")
			cond.AppendChild(xmldom.NewText(c))
			nd.AppendChild(cond)
		}
		for ai := range n.NumAlts() {
			var ids []string
			for _, k := range n.Alt(ai) {
				ids = append(ids, k.ID)
			}
			a := xmldom.NewElement("alt")
			a.AppendChild(xmldom.NewText(strings.Join(ids, " ")))
			nd.AppendChild(a)
		}
		root.AppendChild(nd)
	}
	return root
}

func refDisclosedDOM(name string, d Disclosed) *xmldom.Node {
	n := xmldom.NewElement(name).
		SetAttr("by", d.By).
		SetAttr("node", d.NodeID)
	if d.Credential != nil {
		n.AppendChild(d.Credential.DOM())
	}
	return n
}

// refRestoreEndpoint, refSnapshotNode, refTreeFromDOM and
// refDisclosedFromDOM are the tree walks RestoreEndpoint made before
// DecodeSnapshot read the layout through xmldom.Reader, with its checks
// of rounds and seqPos added. FuzzEncodeSnapshot diffs the two.

func refRestoreEndpoint(p *Party, root *xmldom.Node) (*Endpoint, error) {
	if root == nil || root.Name != "negotiationState" {
		name := "nil"
		if root != nil {
			name = "<" + root.Name + ">"
		}
		return nil, fmt.Errorf("negotiation: expected <negotiationState>, got %v", name)
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
	for _, c := range []struct {
		name string
		n    *int
	}{{"rounds", &e.rounds}, {"seqPos", &e.seqPos}} {
		raw := root.AttrOr(c.name, "0")
		if *c.n, err = strconv.Atoi(raw); err != nil || *c.n < 0 {
			return nil, fmt.Errorf("negotiation: snapshot %s %q is not a non-negative decimal", c.name, raw)
		}
	}
	e.peerProof = root.AttrOr("peerProof", "") == "true"
	if e.lastNonceRecv, err = appendB64(e.nonces[0][:0], root.AttrOr("nonceRecv", "")); err != nil {
		return nil, fmt.Errorf("negotiation: bad nonceRecv: %w", err)
	}
	if e.lastNonceSent, err = appendB64(e.nonces[1][:0], root.AttrOr("nonceSent", "")); err != nil {
		return nil, fmt.Errorf("negotiation: bad nonceSent: %w", err)
	}
	if e.tree, err = refTreeFromDOM(root.Child("tree")); err != nil {
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
	if e.phase == phaseExchange {
		e.seq = e.tree.Sequence()
		if e.seq == nil {
			return nil, fmt.Errorf("negotiation: restored exchange-phase tree is not satisfiable")
		}
	}
	if e.seqPos > len(e.seq) {
		return nil, fmt.Errorf("negotiation: restored seqPos %d beyond sequence length %d", e.seqPos, len(e.seq))
	}
	for _, ch := range root.Childs("chosen") {
		n, err := refSnapshotNode(e, ch)
		if err != nil {
			return nil, err
		}
		if c, ok := e.findCandidate(n, ch.AttrOr("credential", "")); ok {
			n.pick = c
		}
	}
	for _, ca := range root.Childs("chosenAlts") {
		n, err := refSnapshotNode(e, ca)
		if err != nil {
			return nil, err
		}
		cands := ca.Childs("cand")
		alts := make([]candidate, 0, len(cands))
		for _, cn := range cands {
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
			d, err := refDisclosedFromDOM(el)
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

func refSnapshotNode(e *Endpoint, el *xmldom.Node) (*Node, error) {
	id := el.AttrOr("node", "")
	n := e.tree.Node(id)
	if n == nil {
		return nil, fmt.Errorf("negotiation: snapshot references unknown node %s", id)
	}
	return n, nil
}

func refTreeFromDOM(root *xmldom.Node) (*Tree, error) {
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
	return buildTree(parsed)
}

func refDisclosedFromDOM(n *xmldom.Node) (Disclosed, error) {
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

func refSortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// snapshotSeeds interrupts the §5.1 negotiation at every message
// boundary and returns both endpoints' snapshots: both phases, with
// nonces, chosen candidates and alternatives, disclosures, and partial
// outcomes holding credentials.
func snapshotSeeds(tb testing.TB, f *fixture) []string {
	tb.Helper()
	var docs []string
	for cut := 1; ; cut++ {
		eps := [2]*Endpoint{NewRequester(f.aerospace, "VoMembership"), NewController(f.aircraft)}
		msg, err := eps[0].Start()
		if err != nil {
			tb.Fatal(err)
		}
		sender := 0
		for n := 0; n < cut && msg != nil; n++ {
			recv := 1 - sender
			if msg, err = eps[recv].Handle(msg); err != nil {
				tb.Fatal(err)
			}
			sender = recv
		}
		if msg == nil {
			return docs
		}
		for _, ep := range eps {
			if ep.SnapshotErr() == nil {
				docs = append(docs, refSnapshotDOM(ep).XML())
			}
		}
	}
}

// nonTrees are snapshot trees that are not trees. Restoring the first in
// phase exchange recursed until the runtime aborted the process.
var nonTrees = map[string]string{
	"self-listing root": `<node id="r" credType="R" owner="AircraftCo" state="expanded"><alt>r</alt></node>`,
	"two-node cycle": `<node id="r" credType="R" owner="AircraftCo" state="expanded"><alt>a</alt></node>` +
		`<node id="a" credType="A" owner="AerospaceCo" state="expanded" parent="r"><alt>b</alt></node>` +
		`<node id="b" credType="B" owner="AircraftCo" state="expanded" parent="a"><alt>a</alt></node>`,
	"unreachable node": `<node id="r" credType="R" owner="AircraftCo" state="comply"></node>` +
		`<node id="x" credType="X" owner="AerospaceCo" state="comply" parent="r"></node>`,
	"child names another parent": `<node id="r" credType="R" owner="AircraftCo" state="expanded"><alt>a b</alt></node>` +
		`<node id="a" credType="A" owner="AerospaceCo" state="comply" parent="r"></node>` +
		`<node id="b" credType="B" owner="AerospaceCo" state="comply" parent="a"></node>`,
	"root with a parent": `<node id="r" credType="R" owner="AircraftCo" state="comply" parent="r"></node>`,
}

// nonTreeSnapshot wraps tree nodes in an exchange-phase snapshot of the
// controller.
func nonTreeSnapshot(nodes string) string {
	return `<negotiationState peer="AerospaceCo" phase="exchange" resource="R" role="controller" rounds="1" seqPos="0"><tree>` +
		nodes + `</tree></negotiationState>`
}

// TestRestoreRefusesNonTree: a snapshot whose nodes do not form a tree
// rooted at r is refused, in either phase, before the engine walks it.
func TestRestoreRefusesNonTree(t *testing.T) {
	f := newFixture(t)
	for name, nodes := range nonTrees {
		for _, phase := range []string{"exchange", "eval"} {
			doc, err := xmldom.ParseString(strings.Replace(nonTreeSnapshot(nodes), `phase="exchange"`, `phase="`+phase+`"`, 1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := restoreTree(doc.Child("tree")); err == nil {
				t.Errorf("%s: decodeTree accepted it", name)
			}
			if _, err := RestoreEndpoint(f.aircraft, doc); err == nil {
				t.Errorf("%s in phase %s: RestoreEndpoint accepted it", name, phase)
			}
		}
	}
}

// restoreTree decodes the <tree> element n through decodeTree.
func restoreTree(n *xmldom.Node) (*Tree, error) {
	r := xmldom.NewNodeReader(n)
	defer r.Close()
	r.Child(0)
	return decodeTree(r)
}

// restoreBytes restores a snapshot from its bytes, building no tree:
// DecodeSnapshot over an xmldom.Reader, whose syntax error wins.
func restoreBytes(p *Party, doc string) (*Endpoint, error) {
	r := xmldom.NewReader(doc)
	ep, err := (*Endpoint)(nil), error(nil)
	if r.Child(0) {
		ep, err = DecodeSnapshot(p, r)
	}
	if cerr := r.Close(); cerr != nil {
		return nil, cerr
	}
	return ep, err
}

// badCounts spells each snapshot seed with a rounds or seqPos that is
// not a count, and an eval-phase seed with a seqPos past its empty trust
// sequence. Restoring them panicked on the slice e.seq[e.seqPos:] or
// read the value as 0.
func badCounts(tb testing.TB, seeds []string) []string {
	tb.Helper()
	attr := regexp.MustCompile(` (rounds|seqPos)="[^"]*"`)
	var docs []string
	for _, doc := range seeds {
		for _, m := range attr.FindAllStringSubmatch(doc, -1) {
			vals := []string{"-1", "x", "", "1e3", "99999999999999999999"}
			if m[1] == "seqPos" && strings.Contains(doc, ` phase="eval"`) {
				vals = append(vals, "1", "7")
			}
			for _, v := range vals {
				docs = append(docs, strings.Replace(doc, m[0], " "+m[1]+`="`+v+`"`, 1))
			}
		}
	}
	return docs
}

// TestRestoreRefusesBadCounts: a snapshot whose rounds or seqPos is not a
// non-negative decimal, or whose seqPos lies past the trust sequence, is
// refused, from its tree and from its bytes, instead of panicking or
// restoring as 0.
func TestRestoreRefusesBadCounts(t *testing.T) {
	fx := newFixture(t)
	docs := badCounts(t, snapshotSeeds(t, fx))
	if len(docs) == 0 {
		t.Fatal("no snapshot to spell")
	}
	for _, doc := range docs {
		root, err := xmldom.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		party := snapshotParty(fx, root)
		if _, err := RestoreEndpoint(party, root); err == nil {
			t.Errorf("RestoreEndpoint accepted %s", doc)
		}
		if _, err := restoreBytes(party, doc); err == nil {
			t.Errorf("DecodeSnapshot accepted %s", doc)
		}
	}
}

// snapshotParty is the fixture's party a snapshot's role restores as.
func snapshotParty(fx *fixture, root *xmldom.Node) *Party {
	if root.AttrOr("role", "") == Controller.String() {
		return fx.aircraft
	}
	return fx.aerospace
}

// FuzzEncodeSnapshot restores each input three ways, from its bytes
// (DecodeSnapshot over xmldom.NewReader), from its parsed tree
// (RestoreEndpoint) and through the tree walk it replaced
// (refRestoreEndpoint), which must agree on the error. For every
// snapshot they accept, each restored endpoint's encoded bytes, its Tree
// and SnapshotDOM equal the canonical XML of refSnapshotDOM.
func FuzzEncodeSnapshot(f *testing.F) {
	fx := newFixture(f)
	seeds := snapshotSeeds(f, fx)
	for _, doc := range seeds {
		root, err := xmldom.ParseString(doc)
		if err == nil {
			_, err = RestoreEndpoint(snapshotParty(fx, root), root)
		}
		if err != nil {
			f.Fatalf("seed %s does not restore: %v", doc, err)
		}
		f.Add(doc)
	}
	for _, nodes := range nonTrees {
		f.Add(nonTreeSnapshot(nodes))
	}
	for _, doc := range badCounts(f, seeds) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		root, perr := xmldom.ParseString(doc)
		if perr != nil {
			if _, err := restoreBytes(fx.aerospace, doc); err == nil {
				t.Fatalf("DecodeSnapshot accepted a document that does not parse: %v", perr)
			}
			return
		}
		party := snapshotParty(fx, root)
		want, wantErr := refRestoreEndpoint(party, root)
		fromBytes, bytesErr := restoreBytes(party, doc)
		fromTree, treeErr := RestoreEndpoint(party, root)
		for _, got := range []struct {
			how string
			err error
		}{{"bytes", bytesErr}, {"tree", treeErr}} {
			if fmt.Sprint(got.err) != fmt.Sprint(wantErr) {
				t.Fatalf("restored from its %s: error %v, reference %v", got.how, got.err, wantErr)
			}
		}
		if wantErr != nil {
			return
		}
		xml := refSnapshotDOM(want).XML()
		for _, ep := range []*Endpoint{want, fromBytes, fromTree} {
			if got := xmldom.String(ep.EncodeSnapshot); got != xml {
				t.Fatalf("EncodeSnapshot:\n got  %s\n want %s", got, xml)
			}
			if got := xmldom.Tree(ep.EncodeSnapshot).XML(); got != xml {
				t.Fatalf("Tree(EncodeSnapshot):\n got  %s\n want %s", got, xml)
			}
			if dom, err := ep.SnapshotDOM(); err != nil || dom.XML() != xml {
				t.Fatalf("SnapshotDOM: %v", err)
			}
		}
	})
}
