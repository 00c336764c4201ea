package xtnl

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"trustvo/internal/xmldom"
)

// refCredentialDOM and refPolicyDOM are the node-by-node builders
// Credential.DOM and Policy.DOM used before both wrote their layout
// through xmldom.Writer. They are the reference the encoders are
// checked against, byte for byte and node for node.

func refCredentialDOM(c *Credential) *xmldom.Node {
	root := xmldom.NewElement("credential")
	if c.ID != "" {
		root.SetAttr("credID", c.ID)
	}
	root.SetAttr("type", c.Type)
	if c.Sensitivity != SensitivityMedium {
		root.SetAttr("sensitivity", c.Sensitivity.String())
	} else {
		root.SetAttr("sensitivity", "medium")
	}

	header := xmldom.NewElement("header")
	addText := func(parent *xmldom.Node, name, val string) {
		el := xmldom.NewElement(name)
		el.AppendChild(xmldom.NewText(val))
		parent.AppendChild(el)
	}
	addText(header, "credType", c.Type)
	addText(header, "issuer", c.Issuer)
	if c.Holder != "" {
		addText(header, "holder", c.Holder)
	}
	if len(c.HolderKey) > 0 {
		addText(header, "holderKey", base64.StdEncoding.EncodeToString(c.HolderKey))
	}
	if !c.ValidFrom.IsZero() {
		addText(header, "issue_Date", c.ValidFrom.UTC().Format(TimeLayout))
	}
	if !c.ValidUntil.IsZero() {
		addText(header, "expiration_Date", c.ValidUntil.UTC().Format(TimeLayout))
	}
	root.AppendChild(header)

	content := xmldom.NewElement("content")
	for _, a := range c.Attributes {
		addText(content, a.Name, a.Value)
	}
	root.AppendChild(content)

	if len(c.Signature) > 0 {
		sig := xmldom.NewElement("signature")
		sig.AppendChild(xmldom.NewText(base64.StdEncoding.EncodeToString(c.Signature)))
		root.AppendChild(sig)
	}
	return root
}

func refSignedBytes(c *Credential) []byte {
	cp := *c
	cp.Signature = nil
	return []byte(refCredentialDOM(&cp).XML())
}

func refPolicyDOM(p Policy) *xmldom.Node {
	root := xmldom.NewElement("policy")
	if p.ID != "" {
		root.SetAttr("polID", p.ID)
	}
	if p.Deliver {
		root.SetAttr("type", "delivery")
	} else {
		root.SetAttr("type", "disclosure")
	}
	res := xmldom.NewElement("resource").SetAttr("target", p.Resource)
	root.AppendChild(res)
	if p.Deliver {
		return root
	}
	props := xmldom.NewElement("properties")
	for _, t := range p.Terms {
		cert := xmldom.NewElement("certificate")
		if !t.Wildcard() {
			cert.SetAttr("targetCertType", t.CredType)
		} else if t.CredType != "" {
			cert.SetAttr("var", t.CredType)
		}
		for _, cond := range t.Conditions {
			cc := xmldom.NewElement("certCond")
			cc.AppendChild(xmldom.NewText(cond))
			cert.AppendChild(cc)
		}
		props.AppendChild(cert)
	}
	root.AppendChild(props)
	for _, cname := range p.Concepts {
		root.AppendChild(xmldom.NewElement("concept").SetAttr("name", cname))
	}
	return root
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

// gen draws test values from fuzz input, favouring the characters the
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

var genPieces = []string{"a", "Zq", "0", " ", "&", "<", ">", `"`, "'", "\r", "\n", "\t", "é", "\x00", "\xff", "]]>", "=", ":", "$", "&amp;"}

func (g *gen) str() string {
	var b strings.Builder
	for n := g.intn(6); n > 0; n-- {
		b.WriteString(genPieces[g.intn(len(genPieces))])
	}
	return b.String()
}

func (g *gen) bytes() []byte {
	n := g.intn(6)
	out := make([]byte, 0, n)
	for ; n > 0; n-- {
		out = append(out, g.byte())
	}
	return out
}

var genZone = time.FixedZone("X", -5*3600+17)

func (g *gen) time() time.Time {
	if g.intn(4) == 0 {
		return time.Time{}
	}
	sec := int64(g.byte())<<24 | int64(g.byte())<<16 | int64(g.byte())<<8 | int64(g.byte())
	return time.Unix(sec*(int64(g.byte())+1), int64(g.byte())*1e6).In(genZone)
}

func (g *gen) credential() *Credential {
	c := &Credential{
		ID:          g.str(),
		Type:        g.str(),
		Issuer:      g.str(),
		Holder:      g.str(),
		HolderKey:   g.bytes(),
		ValidFrom:   g.time(),
		ValidUntil:  g.time(),
		Sensitivity: Sensitivity(g.intn(4)),
	}
	for n := g.intn(4); n > 0; n-- {
		c.Attributes = append(c.Attributes, Attribute{Name: g.str(), Value: g.str()})
	}
	c.Signature = g.bytes()
	return c
}

func (g *gen) policy() Policy {
	p := Policy{ID: g.str(), Resource: g.str(), Deliver: g.intn(3) == 0}
	for n := g.intn(3); n > 0; n-- {
		t := Term{CredType: g.str()}
		if g.intn(2) == 0 {
			t.CredType = "$" + t.CredType
		}
		for k := g.intn(3); k > 0; k-- {
			t.Conditions = append(t.Conditions, g.str())
		}
		p.Terms = append(p.Terms, t)
	}
	for n := g.intn(3); n > 0; n-- {
		p.Concepts = append(p.Concepts, g.str())
	}
	return p
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("credential"))
	f.Add(bytes.Repeat([]byte{3, 7, 1, 250, 9}, 40))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
}

// FuzzEncodeCredential checks Credential's encoder against the reference
// builder on generated credentials: XML and SignedBytes byte for byte,
// DOM node for node.
func FuzzEncodeCredential(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := (&gen{data}).credential()
		ref := refCredentialDOM(c)
		if got, want := c.XML(), ref.XML(); got != want {
			t.Fatalf("XML:\n got  %q\n want %q", got, want)
		}
		if got, want := c.SignedBytes(), refSignedBytes(c); !bytes.Equal(got, want) {
			t.Fatalf("SignedBytes:\n got  %q\n want %q", got, want)
		}
		if d := treeDiff(c.DOM(), ref); d != "" {
			t.Fatalf("DOM differs from the reference: %s", d)
		}
	})
}

// FuzzEncodePolicy is FuzzEncodeCredential for policies.
func FuzzEncodePolicy(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := (&gen{data}).policy()
		ref := refPolicyDOM(p)
		if got, want := p.XML(), ref.XML(); got != want {
			t.Fatalf("XML:\n got  %q\n want %q", got, want)
		}
		if d := treeDiff(p.DOM(), ref); d != "" {
			t.Fatalf("DOM differs from the reference: %s", d)
		}
	})
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestSignedBytesAllocations guards what the verify cache pays on every
// hit: one allocation, the returned slice, and no tree.
func TestSignedBytesAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := iso9000Credential()
	c.HolderKey = bytes.Repeat([]byte{7}, 32)
	c.Signature = bytes.Repeat([]byte{9}, 64)
	c.SignedBytes()
	if allocs := testing.AllocsPerRun(200, func() { _ = c.SignedBytes() }); allocs > 1 {
		t.Errorf("SignedBytes allocates %.1f times, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = c.XML() }); allocs > 1 {
		t.Errorf("XML allocates %.1f times, want 1", allocs)
	}
}

// guardCredential is the credential the term-evaluation allocation
// guards use: a signed, holder-bound credential carrying the
// regulation attribute the benchmark's membership policy checks.
func guardCredential() *Credential {
	c := iso9000Credential()
	c.HolderKey = bytes.Repeat([]byte{7}, 32)
	c.Signature = bytes.Repeat([]byte{9}, 64)
	c.SetAttr("regulation", "UNI EN ISO 9000")
	return c
}

// TestCredentialDOMAllocations guards the slab-built tree: the nodes,
// attributes, child pointers and formatted values of one credential
// come from a handful of allocations, not one or more per node.
func TestCredentialDOMAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := guardCredential()
	c.DOM()
	if allocs := testing.AllocsPerRun(200, func() { _ = c.DOM() }); allocs > 5 {
		t.Errorf("DOM allocates %.1f times, want at most 5", allocs)
	}
}

// TestSatisfiedByAllocations guards what the controller pays to check
// one received credential against a term with one condition: its tree
// and one evaluation, the condition compiled once, process-wide.
func TestSatisfiedByAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := guardCredential()
	term := Term{CredType: c.Type, Conditions: []string{`/credential/content/regulation='UNI EN ISO 9000'`}}
	if !term.SatisfiedBy(c) {
		t.Fatal("condition does not hold")
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = term.SatisfiedBy(c) }); allocs > 8 {
		t.Errorf("SatisfiedBy allocates %.1f times, want at most 8", allocs)
	}
}
