package negotiation

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// refMessageDOM, refDisclosureDOM and refTicketDOM are the node-by-node
// builders Message.DOM used before it wrote its layout through
// xmldom.Writer. Nested credentials and policies come from their own
// DOM methods, which internal/xtnl checks against its reference builders.

func refMessageDOM(m *Message) *xmldom.Node {
	root := xmldom.NewElement("tnMessage").
		SetAttr("type", m.Type.String()).
		SetAttr("from", m.From)
	if m.Resource != "" {
		root.SetAttr("resource", m.Resource)
	}
	if m.Type == MsgRequest {
		root.SetAttr("strategy", m.Strategy.String())
	}
	if m.RequireProof {
		root.SetAttr("requireProof", "true")
	}
	for _, a := range m.Answers {
		an := xmldom.NewElement("answer").
			SetAttr("node", a.NodeID).
			SetAttr("kind", a.Kind.String())
		if a.Reason != "" {
			an.SetAttr("reason", a.Reason)
		}
		for _, p := range a.Policies {
			an.AppendChild(p.DOM())
		}
		if a.Disclosure != nil {
			an.AppendChild(refDisclosureDOM(a.Disclosure))
		}
		root.AppendChild(an)
	}
	if len(m.Sequence) > 0 {
		seq := xmldom.NewElement("trustSequence")
		for _, id := range m.Sequence {
			seq.AppendChild(xmldom.NewElement("entry").SetAttr("node", id))
		}
		root.AppendChild(seq)
	}
	for i := range m.Disclosures {
		root.AppendChild(refDisclosureDOM(&m.Disclosures[i]))
	}
	if len(m.Nonce) > 0 {
		n := xmldom.NewElement("nonce")
		n.AppendChild(xmldom.NewText(base64.StdEncoding.EncodeToString(m.Nonce)))
		root.AppendChild(n)
	}
	if len(m.Grant) > 0 {
		g := xmldom.NewElement("grant")
		g.AppendChild(xmldom.NewText(base64.StdEncoding.EncodeToString(m.Grant)))
		root.AppendChild(g)
	}
	if m.Ticket != nil {
		root.AppendChild(refTicketDOM(m.Ticket))
	}
	if m.Reason != "" {
		r := xmldom.NewElement("reason")
		r.AppendChild(xmldom.NewText(m.Reason))
		root.AppendChild(r)
	}
	return root
}

func refDisclosureDOM(d *CredentialDisclosure) *xmldom.Node {
	el := xmldom.NewElement("disclosure").SetAttr("node", d.NodeID)
	if d.Credential != nil {
		el.AppendChild(d.Credential.DOM())
	}
	if len(d.X509) > 0 {
		xe := xmldom.NewElement("x509")
		xe.AppendChild(xmldom.NewText(base64.StdEncoding.EncodeToString(d.X509)))
		el.AppendChild(xe)
	}
	if d.Committed != nil {
		com := xmldom.NewElement("committed")
		com.AppendChild(d.Committed.DOM())
		el.AppendChild(com)
		for _, o := range d.Opened {
			oe := xmldom.NewElement("opened").
				SetAttr("name", o.Name).
				SetAttr("salt", base64.StdEncoding.EncodeToString(o.Salt))
			oe.AppendChild(xmldom.NewText(o.Value))
			el.AppendChild(oe)
		}
	}
	if len(d.OwnershipProof) > 0 {
		pr := xmldom.NewElement("ownershipProof")
		pr.AppendChild(xmldom.NewText(base64.StdEncoding.EncodeToString(d.OwnershipProof)))
		el.AppendChild(pr)
	}
	if len(d.Chain) > 0 {
		ch := xmldom.NewElement("chain")
		for _, c := range d.Chain {
			ch.AppendChild(c.DOM())
		}
		el.AppendChild(ch)
	}
	return el
}

func refTicketDOM(t *Ticket) *xmldom.Node {
	n := xmldom.NewElement("sealed").
		SetAttr("label", "trustvo-ticket").
		SetAttr("notAfter", t.Expires.UTC().Format(time.RFC3339))
	n.AppendChild(xmldom.NewElement("ticket").
		SetAttr("issuer", t.Issuer).
		SetAttr("peer", t.Peer).
		SetAttr("resource", t.Resource))
	if len(t.Signature) > 0 {
		sig := xmldom.NewElement("signature")
		sig.AppendChild(xmldom.NewText(base64.StdEncoding.EncodeToString(t.Signature)))
		n.AppendChild(sig)
	}
	return n
}

// treeDiff describes the first difference between two trees, or returns
// "" when they are equal node for node: types, names, data, attributes
// in order, children (empty text children included) and parent links.
func treeDiff(got, want *xmldom.Node) string {
	if got.Type != want.Type || got.Name != want.Name || got.Data != want.Data {
		return fmt.Sprintf("node %s %q %q, want %s %q %q", got.Type, got.Name, got.Data, want.Type, want.Name, want.Data)
	}
	if !slices.Equal(got.Attrs, want.Attrs) {
		return fmt.Sprintf("<%s> attributes %q, want %q", got.Name, got.Attrs, want.Attrs)
	}
	if len(got.Children) != len(want.Children) {
		return fmt.Sprintf("<%s> has %d children, want %d", got.Name, len(got.Children), len(want.Children))
	}
	for i, c := range got.Children {
		if c.Parent != got {
			return fmt.Sprintf("child %d of <%s> has the wrong parent", i, got.Name)
		}
		if d := treeDiff(c, want.Children[i]); d != "" {
			return d
		}
	}
	return ""
}

// gen draws messages from fuzz input, favouring the characters the
// canonical form escapes and the parser normalizes.
type gen struct{ data []byte }

func (g *gen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *gen) intn(n int) int { return int(g.byte()) % n }

var genPieces = []string{"a", "Zq", "0", " ", "&", "<", ">", `"`, "'", "\r", "\n", "\t", "é", "\x00", "\xff", "]]>", "=", ":"}

func (g *gen) str() string {
	var b strings.Builder
	for n := g.intn(5); n > 0; n-- {
		b.WriteString(genPieces[g.intn(len(genPieces))])
	}
	return b.String()
}

func (g *gen) bytes() []byte {
	n := g.intn(5)
	out := make([]byte, 0, n)
	for ; n > 0; n-- {
		out = append(out, g.byte())
	}
	return out
}

func (g *gen) time() time.Time {
	if g.intn(4) == 0 {
		return time.Time{}
	}
	sec := int64(g.byte())<<24 | int64(g.byte())<<16 | int64(g.byte())<<8 | int64(g.byte())
	return time.Unix(sec, int64(g.byte())*1e6).In(time.FixedZone("X", 3600))
}

func (g *gen) credential() *xtnl.Credential {
	c := &xtnl.Credential{
		ID: g.str(), Type: g.str(), Issuer: g.str(), Holder: g.str(),
		HolderKey: g.bytes(), ValidFrom: g.time(), ValidUntil: g.time(),
		Sensitivity: xtnl.Sensitivity(g.intn(4)),
	}
	for n := g.intn(3); n > 0; n-- {
		c.Attributes = append(c.Attributes, xtnl.Attribute{Name: g.str(), Value: g.str()})
	}
	c.Signature = g.bytes()
	return c
}

func (g *gen) policy() *xtnl.Policy {
	p := &xtnl.Policy{ID: g.str(), Resource: g.str(), Deliver: g.intn(3) == 0}
	for n := g.intn(3); n > 0; n-- {
		t := xtnl.Term{CredType: g.str()}
		for k := g.intn(3); k > 0; k-- {
			t.Conditions = append(t.Conditions, g.str())
		}
		p.Terms = append(p.Terms, t)
	}
	for n := g.intn(2); n > 0; n-- {
		p.Concepts = append(p.Concepts, g.str())
	}
	return p
}

func (g *gen) disclosure() *CredentialDisclosure {
	d := &CredentialDisclosure{NodeID: g.str(), X509: g.bytes(), OwnershipProof: g.bytes()}
	switch g.intn(3) {
	case 0:
		d.Credential = g.credential()
	case 1:
		d.Committed = g.credential()
		for n := g.intn(3); n > 0; n-- {
			d.Opened = append(d.Opened, OpenedAttr{Name: g.str(), Value: g.str(), Salt: g.bytes()})
		}
	}
	for n := g.intn(3); n > 0; n-- {
		d.Chain = append(d.Chain, g.credential())
	}
	return d
}

func (g *gen) message() *Message {
	m := &Message{
		Type: MsgType(g.intn(9)), From: g.str(), Resource: g.str(),
		Strategy: Strategy(g.intn(5)), RequireProof: g.intn(2) == 0,
	}
	for n := g.intn(3); n > 0; n-- {
		a := Answer{NodeID: g.str(), Kind: AnswerKind(g.intn(4)), Reason: g.str()}
		for k := g.intn(3); k > 0; k-- {
			a.Policies = append(a.Policies, g.policy())
		}
		if g.intn(3) == 0 {
			a.Disclosure = g.disclosure()
		}
		m.Answers = append(m.Answers, a)
	}
	for n := g.intn(3); n > 0; n-- {
		m.Sequence = append(m.Sequence, g.str())
	}
	for n := g.intn(3); n > 0; n-- {
		m.Disclosures = append(m.Disclosures, *g.disclosure())
	}
	m.Nonce, m.Grant = g.bytes(), g.bytes()
	if g.intn(3) == 0 {
		m.Ticket = &Ticket{Issuer: g.str(), Peer: g.str(), Resource: g.str(), Expires: g.time(), Signature: g.bytes()}
	}
	m.Reason = g.str()
	return m
}

// FuzzEncodeMessage checks Message's encoder against the reference
// builder on generated messages — answers with policies and disclosures,
// disclosures with chains, committed and opened parts and proofs, trust
// sequences, nonces, grants and tickets: XML byte for byte, DOM node for
// node.
func FuzzEncodeMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("tnMessage"))
	f.Add(bytes.Repeat([]byte{2, 7, 1, 3, 9, 4}, 60))
	f.Add(bytes.Repeat([]byte{1, 2, 0, 250, 5, 3, 8, 1}, 80))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := (&gen{data}).message()
		ref := refMessageDOM(m)
		if got, want := m.XML(), ref.XML(); got != want {
			t.Fatalf("XML:\n got  %q\n want %q", got, want)
		}
		if d := treeDiff(xmldom.Tree(m.Encode), ref); d != "" {
			t.Fatalf("DOM differs from the reference: %s", d)
		}
	})
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestMessageXMLAllocations guards the outgoing-envelope path: a message
// is one allocation, the returned string, whatever it carries.
func TestMessageXMLAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cred := &xtnl.Credential{
		ID: "INFN-7-0a1b2c3d", Type: "ISO 9000 Certified", Issuer: "INFN", Holder: "AerospaceCo",
		HolderKey:  bytes.Repeat([]byte{1}, 32),
		ValidFrom:  time.Date(2009, 10, 26, 21, 32, 52, 0, time.UTC),
		ValidUntil: time.Date(2010, 10, 26, 21, 32, 52, 0, time.UTC),
		Attributes: []xtnl.Attribute{{Name: "QualityRegulation", Value: "UNI EN ISO 9000"}},
		Signature:  bytes.Repeat([]byte{2}, 64),
	}
	disclosure := &Message{
		Type: MsgCredential, From: "AerospaceCo",
		Disclosures: []CredentialDisclosure{{NodeID: "r.0.0", Credential: cred, OwnershipProof: bytes.Repeat([]byte{3}, 64)}},
		Nonce:       bytes.Repeat([]byte{4}, 16),
	}
	policy := &Message{
		Type: MsgPolicy, From: "AircraftCo",
		Answers: []Answer{
			{NodeID: "r", Kind: AnswerPolicies, Policies: []*xtnl.Policy{
				{Resource: "VoMembership", Terms: []xtnl.Term{
					{CredType: "WebDesignerQuality", Conditions: []string{"/credential/content/regulation='UNI EN ISO 9000'"}},
				}},
			}},
			{NodeID: "r.0.0", Kind: AnswerDeny, Reason: "credential not possessed"},
		},
	}
	for name, m := range map[string]*Message{"credential disclosure": disclosure, "policy": policy} {
		if got, want := m.XML(), refMessageDOM(m).XML(); got != want {
			t.Fatalf("%s message:\n got  %s\n want %s", name, got, want)
		}
		if allocs := testing.AllocsPerRun(200, func() { _ = m.XML() }); allocs > 1 {
			t.Errorf("XML of a %s message allocates %.1f times, want 1", name, allocs)
		}
	}
}
