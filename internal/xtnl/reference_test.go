package xtnl

import (
	"encoding/base64"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"trustvo/internal/xmldom"
)

// refCredentialFromDOM and refPolicyFromDOM are the tree-walking
// decoders DecodeCredential and DecodePolicy replaced, kept as the
// oracle FuzzDecodeCredential and FuzzDecodePolicy check them against.

func refCredentialFromDOM(root *xmldom.Node) (*Credential, error) {
	if root.Name != "credential" {
		return nil, fmt.Errorf("%w: root element is <%s>, want <credential>", ErrBadCredential, root.Name)
	}
	c := &Credential{
		ID:          root.AttrOr("credID", ""),
		Type:        root.AttrOr("type", ""),
		Sensitivity: ParseSensitivity(root.AttrOr("sensitivity", "medium")),
	}
	header := root.Child("header")
	if header == nil {
		return nil, fmt.Errorf("%w: missing <header>", ErrBadCredential)
	}
	if ht := header.ChildText("credType"); ht != "" {
		if c.Type != "" && ht != c.Type {
			return nil, fmt.Errorf("%w: type attribute %q disagrees with credType %q", ErrBadCredential, c.Type, ht)
		}
		c.Type = ht
	}
	if c.Type == "" {
		return nil, fmt.Errorf("%w: no credential type", ErrBadCredential)
	}
	c.Issuer = header.ChildText("issuer")
	c.Holder = header.ChildText("holder")
	if hk := header.ChildText("holderKey"); hk != "" {
		b, err := base64.StdEncoding.DecodeString(hk)
		if err != nil {
			return nil, fmt.Errorf("%w: bad holderKey: %w", ErrBadCredential, err)
		}
		c.HolderKey = b
	}
	var perr error
	parseTime := func(s string) time.Time {
		if s == "" {
			return time.Time{}
		}
		t, err := time.ParseInLocation(TimeLayout, s, time.UTC)
		if err != nil && perr == nil {
			perr = fmt.Errorf("%w: bad timestamp %q", ErrBadCredential, s)
		}
		return t
	}
	c.ValidFrom = parseTime(header.ChildText("issue_Date"))
	c.ValidUntil = parseTime(header.ChildText("expiration_Date"))
	if perr != nil {
		return nil, perr
	}
	if content := root.Child("content"); content != nil {
		for _, el := range content.Elements() {
			c.Attributes = append(c.Attributes, Attribute{Name: el.Name, Value: el.Text()})
		}
	}
	if sig := root.Child("signature"); sig != nil {
		b, err := base64.StdEncoding.DecodeString(strings.TrimSpace(sig.Text()))
		if err != nil {
			return nil, fmt.Errorf("%w: bad signature encoding: %w", ErrBadCredential, err)
		}
		c.Signature = b
	}
	return c, nil
}

func refPolicyFromDOM(root *xmldom.Node) (*Policy, error) {
	if root.Name != "policy" {
		return nil, fmt.Errorf("%w: root element is <%s>, want <policy>", ErrBadPolicy, root.Name)
	}
	p := &Policy{ID: root.AttrOr("polID", "")}
	res := root.Child("resource")
	if res == nil {
		return nil, fmt.Errorf("%w: missing <resource>", ErrBadPolicy)
	}
	p.Resource = res.AttrOr("target", "")
	if p.Resource == "" {
		return nil, fmt.Errorf("%w: <resource> without target", ErrBadPolicy)
	}
	if root.AttrOr("type", "disclosure") == "delivery" {
		p.Deliver = true
		return p, nil
	}
	props := root.Child("properties")
	if props == nil {
		return nil, fmt.Errorf("%w: disclosure policy for %s without <properties>", ErrBadPolicy, p.Resource)
	}
	for _, cert := range props.Childs("certificate") {
		t := Term{CredType: cert.AttrOr("targetCertType", cert.AttrOr("var", ""))}
		for _, cc := range cert.Childs("certCond") {
			t.Conditions = append(t.Conditions, strings.TrimSpace(cc.Text()))
		}
		p.Terms = append(p.Terms, t)
	}
	for _, cn := range root.Childs("concept") {
		p.Concepts = append(p.Concepts, cn.AttrOr("name", ""))
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadPolicy, err)
	}
	return p, nil
}

// refParse is the decode path before the Reader: parse, then walk.
func refParse[T any](doc string, bad error, fromDOM func(*xmldom.Node) (T, error)) (T, error) {
	root, err := xmldom.ParseString(doc)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("%w: %w", bad, err)
	}
	return fromDOM(root)
}

// checkDecoder requires the decoder of doc's bytes, the decoder over
// doc's parsed tree (when it parses) and the reference to agree: accept
// or reject alike, with equal values or the same error.
func checkDecoder[T any](t *testing.T, doc string, got, ref T, err, refErr error, fromTree func(*xmldom.Node) (T, error)) {
	t.Helper()
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("%q: decoder error %v, reference error %v", doc, err, refErr)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("%q: decoded %+v, reference %+v", doc, got, ref)
	}
	root, perr := xmldom.ParseString(doc)
	if perr != nil {
		return
	}
	fromDOM, err := fromTree(root)
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() || !reflect.DeepEqual(fromDOM, ref) {
		t.Fatalf("%q: tree decoder %+v, %v; reference %+v, %v", doc, fromDOM, err, ref, refErr)
	}
}

// decoderSeeds are documents that exercise repeats, unknown elements,
// mixed content and references.
var decoderSeeds = []string{
	`<credential type="T"><header><credType>T</credType><credType>U</credType><issuer>a<!--c-->b</issuer></header>` +
		`<x/><content><k>v</k><k>w</k><j>1<i>2</i>&amp;</j></content><content><z>9</z></content><signature> AAAA </signature><signature>!</signature></credential>`,
	`<credential credID="c&amp;1"><content/><header><issue_Date>2009-10-26T21:32:52</issue_Date><holderKey>AAEC</holderKey></header></credential>`,
	`<credential type="T"><header><expiration_Date>bad</expiration_Date><issue_Date>worse</issue_Date></header></credential>`,
	`<credential type="T"><header><holderKey>!!</holderKey></header><signature>!!</signature></credential>`,
	`<policy polID="p"><properties><certificate var="$x"><certCond> /credential </certCond><certCond>1 &lt; 2</certCond></certificate><other/>` +
		`<certificate targetCertType="A"/></properties><resource target="R"/><resource/><concept name="c1"/><concept/></policy>`,
	`<policy type="delivery"><resource target="R"/><properties><certificate/></properties><concept name="c"/></policy>`,
	`<policy><resource target="R"/><properties><certificate><certCond>((</certCond></certificate></properties></policy>`,
	`<policy><resource target=""/></policy>`,
	`<policy><properties/></policy>`,
}

// FuzzDecodeCredential checks DecodeCredential, over bytes and over
// trees, against the tree-walking decoder it replaced.
func FuzzDecodeCredential(f *testing.F) {
	seedCorpus(f, "credential_iso9000.xml")
	for _, doc := range decoderSeeds {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		got, err := ParseCredential(doc)
		ref, refErr := refParse(doc, ErrBadCredential, refCredentialFromDOM)
		checkDecoder(t, doc, got, ref, err, refErr, CredentialFromDOM)
	})
}

// FuzzDecodePolicy checks DecodePolicy, over bytes and over trees,
// against the tree-walking decoder it replaced.
func FuzzDecodePolicy(f *testing.F) {
	seedCorpus(f, "policy_iso9000.xml", "message_policy.xml")
	for _, doc := range decoderSeeds {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		got, err := ParsePolicy(doc)
		ref, refErr := refParse(doc, ErrBadPolicy, refPolicyFromDOM)
		checkDecoder(t, doc, got, ref, err, refErr, PolicyFromDOM)
	})
}
