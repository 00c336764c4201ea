// Package xtnl implements X-TNL, the XML-based Trust Negotiation Language
// of the Trust-X system (paper §4.1 and §6.2).
//
// X-TNL has two kinds of artifacts:
//
//   - Credentials: sets of attributes about a party, issued and signed by a
//     Credential Authority. All credentials of a party form its X-Profile.
//     The XML layout follows the paper's Fig. 6: a <credential> element
//     with <header> (type, issuer, validity), <content> (the attributes)
//     and <signature> (base64 signature by the issuer over the rest).
//
//   - Disclosure policies: logic rules R ← T1,…,Tn stating which
//     counterpart credentials (terms, possibly with XPath conditions) must
//     be disclosed before resource R is released, or R ← DELIV for freely
//     deliverable resources. The XML layout follows Fig. 7: <policy> with
//     <resource target=…> and <properties>/<certificate targetCertType=…>/
//     <certCond> elements holding XPath conditions.
//
// Policies can also be written in a compact textual DSL (see dsl.go),
// hand-rolled for this reproduction:
//
//	VoMembership <- WebDesignerQuality(regulation='UNI EN ISO 9000')
//	Certification <- AAAccreditation | BalanceSheet(issuer='BBB')
//	PublicInfo <- DELIV
package xtnl

import (
	"encoding/base64"
	"errors"
	"fmt"
	"strings"
	"time"

	"trustvo/internal/xmldom"
)

// TimeLayout is the timestamp layout used in credential validity fields.
// It matches the paper's examples ("2009-10-26T21:32:52", no zone; all
// times are interpreted as UTC).
const TimeLayout = "2006-01-02T15:04:05"

// Sensitivity labels a credential's privacy level. Algorithm 1 of the
// paper clusters a party's credentials by this label and discloses the
// least sensitive credential that satisfies a request.
type Sensitivity int

const (
	// SensitivityLow marks freely disclosable credentials.
	SensitivityLow Sensitivity = iota
	// SensitivityMedium marks credentials disclosed only under policy.
	SensitivityMedium
	// SensitivityHigh marks credentials disclosed reluctantly, as a
	// last resort among the alternatives implementing a concept.
	SensitivityHigh
)

// String returns the label used in XML ("low", "medium", "high").
func (s Sensitivity) String() string {
	switch s {
	case SensitivityLow:
		return "low"
	case SensitivityMedium:
		return "medium"
	case SensitivityHigh:
		return "high"
	default:
		return fmt.Sprintf("Sensitivity(%d)", int(s))
	}
}

// ParseSensitivity converts a label to a Sensitivity, defaulting to
// medium for unknown labels (the conservative choice).
func ParseSensitivity(s string) Sensitivity {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "low":
		return SensitivityLow
	case "high":
		return SensitivityHigh
	default:
		return SensitivityMedium
	}
}

// Attribute is a single named property carried by a credential.
type Attribute struct {
	Name  string
	Value string
}

// Credential is an X-TNL attribute credential: a statement by Issuer that
// Holder possesses Attributes, valid within [ValidFrom, ValidUntil].
//
// Signature is the issuer's signature over the canonical XML of the
// credential with the <signature> element removed; internal/pki produces
// and verifies it. HolderKey (base64, in the header) lets the counterpart
// challenge the presenter to prove ownership.
type Credential struct {
	ID          string
	Type        string
	Issuer      string
	Holder      string
	HolderKey   []byte // holder's public key, for ownership proof
	ValidFrom   time.Time
	ValidUntil  time.Time
	Sensitivity Sensitivity
	Attributes  []Attribute
	Signature   []byte // issuer signature; empty until signed
}

// Attr returns the value of the named content attribute and whether it
// is present.
func (c *Credential) Attr(name string) (string, bool) {
	for _, a := range c.Attributes {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets or replaces a content attribute and returns c.
func (c *Credential) SetAttr(name, value string) *Credential {
	for i := range c.Attributes {
		if c.Attributes[i].Name == name {
			c.Attributes[i].Value = value
			return c
		}
	}
	c.Attributes = append(c.Attributes, Attribute{Name: name, Value: value})
	return c
}

// ValidAt reports whether t falls within the credential's validity window.
func (c *Credential) ValidAt(t time.Time) bool {
	if !c.ValidFrom.IsZero() && t.Before(c.ValidFrom) {
		return false
	}
	if !c.ValidUntil.IsZero() && t.After(c.ValidUntil) {
		return false
	}
	return true
}

// Encode writes the credential in the Fig. 6 layout:
//
//	<credential credID=… type=… sensitivity=…>
//	  <header>credType, issuer, holder?, holderKey?, issue_Date?, expiration_Date?</header>
//	  <content><attrName>value</attrName>…</content>
//	  <signature>base64</signature>
//	</credential>
func (c *Credential) Encode(w *xmldom.Writer) { c.encode(w, true) }

// encode writes the layout, leaving out <signature> for the signed bytes.
func (c *Credential) encode(w *xmldom.Writer, withSignature bool) {
	w.Start("credential")
	if c.ID != "" {
		w.Attr("credID", c.ID)
	}
	w.Attr("type", c.Type)
	w.Attr("sensitivity", c.Sensitivity.String())

	w.Start("header")
	textElement(w, "credType", c.Type)
	textElement(w, "issuer", c.Issuer)
	if c.Holder != "" {
		textElement(w, "holder", c.Holder)
	}
	if len(c.HolderKey) > 0 {
		w.Start("holderKey")
		w.TextBase64(c.HolderKey)
		w.End()
	}
	if !c.ValidFrom.IsZero() {
		w.Start("issue_Date")
		w.TextTime(c.ValidFrom.UTC(), TimeLayout)
		w.End()
	}
	if !c.ValidUntil.IsZero() {
		w.Start("expiration_Date")
		w.TextTime(c.ValidUntil.UTC(), TimeLayout)
		w.End()
	}
	w.End()

	w.Start("content")
	for _, a := range c.Attributes {
		textElement(w, a.Name, a.Value)
	}
	w.End()

	if withSignature && len(c.Signature) > 0 {
		w.Start("signature")
		w.TextBase64(c.Signature)
		w.End()
	}
	w.End()
}

// textElement writes <name>text</name>.
func textElement(w *xmldom.Writer, name, text string) {
	w.Start(name)
	w.Text(text)
	w.End()
}

// ErrUnencodable reports a credential that would not survive the wire.
var ErrUnencodable = errors.New("xtnl: credential does not survive the wire")

// EncodeError names the credential field that parsing the canonical XML
// would not give back as written. The receiver would then hold different
// signed bytes, and the issuer's signature would fail there.
type EncodeError struct {
	Field string
	Value string
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("%v: %s %q", ErrUnencodable, e.Field, e.Value)
}

// Unwrap makes errors.Is(err, ErrUnencodable) hold.
func (e *EncodeError) Unwrap() error { return ErrUnencodable }

// CheckWire reports, as an *EncodeError, the first field of c that
// ParseCredential(c.XML()) would not give back as written: text the
// parser normalizes (a carriage return) or drops (white space only),
// characters XML cannot carry, an attribute name that is not an XML name
// or has a colon, or a timestamp outside years 0–9999. An issuer checks
// before signing; the check is a scan of the strings, not a parse.
func (c *Credential) CheckWire() error {
	if !xmldom.AttrRoundTrips(c.ID) {
		return &EncodeError{"credential ID", c.ID}
	}
	if !xmldom.AttrRoundTrips(c.Type) || !xmldom.TextRoundTrips(c.Type) {
		return &EncodeError{"type", c.Type}
	}
	if !xmldom.TextRoundTrips(c.Issuer) {
		return &EncodeError{"issuer", c.Issuer}
	}
	if !xmldom.TextRoundTrips(c.Holder) {
		return &EncodeError{"holder", c.Holder}
	}
	for _, t := range []time.Time{c.ValidFrom, c.ValidUntil} {
		if y := t.UTC().Year(); !t.IsZero() && (y < 0 || y > 9999) {
			return &EncodeError{"validity", t.String()}
		}
	}
	for _, a := range c.Attributes {
		if !xmldom.IsNCName(a.Name) {
			return &EncodeError{"attribute name", a.Name}
		}
		if !xmldom.TextRoundTrips(a.Value) {
			return &EncodeError{"attribute " + a.Name, a.Value}
		}
	}
	return nil
}

// DOM builds the credential's XML tree in the Fig. 6 layout.
func (c *Credential) DOM() *xmldom.Node { return xmldom.Tree(c.Encode) }

// XML serializes the credential in canonical form.
func (c *Credential) XML() string { return xmldom.String(c.Encode) }

// SignedBytes returns the canonical bytes covered by the issuer's
// signature: the credential XML with the <signature> element omitted.
func (c *Credential) SignedBytes() []byte { return xmldom.Bytes(c.encodeSigned) }

// WritesSignedBytes reports whether b are c's signed bytes, comparing
// as it writes them, with no copy made (xmldom.Writes).
func (c *Credential) WritesSignedBytes(b []byte) bool { return xmldom.Writes(b, c.encodeSigned) }

// encodeSigned writes the signed bytes' layout: all but <signature>.
func (c *Credential) encodeSigned(w *xmldom.Writer) { c.encode(w, false) }

// ErrBadCredential reports a malformed credential document.
var ErrBadCredential = errors.New("xtnl: malformed credential")

// ParseCredential decodes a Fig. 6-layout credential document from its
// bytes, building no tree. Its strings are substrings of xmlText, under
// package xmldom's retention rule.
func ParseCredential(xmlText string) (*Credential, error) {
	r := xmldom.NewReader(xmlText)
	c, err := readCredential(r)
	if serr := r.Close(); serr != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCredential, serr)
	}
	return c, err
}

// CredentialFromDOM decodes a credential from an already-parsed tree.
func CredentialFromDOM(root *xmldom.Node) (*Credential, error) {
	r := xmldom.NewNodeReader(root)
	c, err := readCredential(r)
	r.Close()
	return c, err
}

// readCredential reads the document's root element as a credential.
func readCredential(r *xmldom.Reader) (*Credential, error) {
	if !r.Child(0) {
		return nil, fmt.Errorf("%w: no root element", ErrBadCredential)
	}
	return DecodeCredential(r)
}

// DecodeCredential decodes the credential whose start tag r has just
// read, reading it to its end: the one decoder of the Fig. 6 layout,
// over bytes and over trees alike. Of each child the first of its name
// counts; later repeats and unknown elements are skipped unread. Checks
// run in the layout's order once the element is read.
func DecodeCredential(r *xmldom.Reader) (*Credential, error) {
	if r.Name() != "credential" {
		return nil, fmt.Errorf("%w: root element is <%s>, want <credential>", ErrBadCredential, r.Name())
	}
	c := &Credential{
		ID:          r.AttrOr("credID", ""),
		Type:        r.AttrOr("type", ""),
		Sensitivity: ParseSensitivity(r.AttrOr("sensitivity", "medium")),
	}
	var h header
	var sig string
	var haveHeader, haveContent, haveSig bool
	for d := r.Depth(); r.Child(d); {
		switch r.Name() {
		case "header":
			if !haveHeader {
				haveHeader = true
				h.read(r)
			}
		case "content":
			if !haveContent {
				haveContent = true
				for d := r.Depth(); r.Child(d); {
					c.Attributes = append(c.Attributes, Attribute{Name: r.Name(), Value: r.Text()})
				}
			}
		case "signature":
			if !haveSig {
				haveSig = true
				sig = r.Text()
			}
		}
	}
	if !haveHeader {
		return nil, fmt.Errorf("%w: missing <header>", ErrBadCredential)
	}
	if ht := h.field[hCredType]; ht != "" {
		if c.Type != "" && ht != c.Type {
			return nil, fmt.Errorf("%w: type attribute %q disagrees with credType %q", ErrBadCredential, c.Type, ht)
		}
		c.Type = ht
	}
	if c.Type == "" {
		return nil, fmt.Errorf("%w: no credential type", ErrBadCredential)
	}
	c.Issuer = h.field[hIssuer]
	c.Holder = h.field[hHolder]
	if hk := h.field[hHolderKey]; hk != "" {
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
	c.ValidFrom = parseTime(h.field[hIssueDate])
	c.ValidUntil = parseTime(h.field[hExpirationDate])
	if perr != nil {
		return nil, perr
	}
	if haveSig {
		b, err := base64.StdEncoding.DecodeString(strings.TrimSpace(sig))
		if err != nil {
			return nil, fmt.Errorf("%w: bad signature encoding: %w", ErrBadCredential, err)
		}
		c.Signature = b
	}
	return c, nil
}

// The <header> children of the Fig. 6 layout, in header.field.
const (
	hCredType = iota
	hIssuer
	hHolder
	hHolderKey
	hIssueDate
	hExpirationDate
	nHeader
)

var headerNames = [nHeader]string{"credType", "issuer", "holder", "holderKey", "issue_Date", "expiration_Date"}

// header is a credential's <header> as read: each field's string-value,
// "" when absent.
type header struct {
	field [nHeader]string
	seen  [nHeader]bool
}

// read reads the <header> element whose start tag r has just read.
func (h *header) read(r *xmldom.Reader) {
	for d := r.Depth(); r.Child(d); {
		for i, name := range headerNames {
			if r.Name() == name {
				if !h.seen[i] {
					h.seen[i] = true
					h.field[i] = r.Text()
				}
				break
			}
		}
	}
}

// Clone returns a deep copy of the credential.
func (c *Credential) Clone() *Credential {
	cp := *c
	cp.Attributes = append([]Attribute(nil), c.Attributes...)
	cp.Signature = append([]byte(nil), c.Signature...)
	cp.HolderKey = append([]byte(nil), c.HolderKey...)
	return &cp
}
