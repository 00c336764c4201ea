package negotiation

import (
	"encoding/base64"
	"errors"
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
			if _, err := treeFromDOM(doc.Child("tree")); err == nil {
				t.Errorf("%s: treeFromDOM accepted it", name)
			}
			if _, err := RestoreEndpoint(f.aircraft, doc); err == nil {
				t.Errorf("%s in phase %s: RestoreEndpoint accepted it", name, phase)
			}
		}
	}
}

// FuzzEncodeSnapshot diffs EncodeSnapshot against refSnapshotDOM: for
// every snapshot RestoreEndpoint accepts, the restored endpoint's encoded
// bytes, its Tree and SnapshotDOM all equal the reference's canonical XML.
func FuzzEncodeSnapshot(f *testing.F) {
	fx := newFixture(f)
	restore := func(doc string) (*Endpoint, error) {
		root, err := xmldom.ParseString(doc)
		if err != nil {
			return nil, err
		}
		party := fx.aerospace
		if root.AttrOr("role", "") == Controller.String() {
			party = fx.aircraft
		}
		return RestoreEndpoint(party, root)
	}
	for _, doc := range snapshotSeeds(f, fx) {
		if _, err := restore(doc); err != nil {
			f.Fatalf("seed %s does not restore: %v", doc, err)
		}
		f.Add(doc)
	}
	for name, nodes := range nonTrees {
		if _, err := restore(nonTreeSnapshot(nodes)); err == nil {
			f.Fatalf("%s: restored", name)
		}
		f.Add(nonTreeSnapshot(nodes))
	}
	f.Fuzz(func(t *testing.T, doc string) {
		ep, err := restore(doc)
		if err != nil {
			return
		}
		want := refSnapshotDOM(ep).XML()
		if got := xmldom.String(ep.EncodeSnapshot); got != want {
			t.Fatalf("EncodeSnapshot:\n got  %s\n want %s", got, want)
		}
		if got := xmldom.Tree(ep.EncodeSnapshot).XML(); got != want {
			t.Fatalf("Tree(EncodeSnapshot):\n got  %s\n want %s", got, want)
		}
		if dom, err := ep.SnapshotDOM(); err != nil || dom.XML() != want {
			t.Fatalf("SnapshotDOM: %v", err)
		}
	})
}
