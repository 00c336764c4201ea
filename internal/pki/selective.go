package pki

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/base64"
	"errors"
	"fmt"

	"trustvo/internal/xtnl"
)

// Selective disclosure of credential attributes.
//
// §6.3 of the paper notes that X.509 v2 attribute certificates "do not
// support partial hiding of the credential contents", restricting the
// usable negotiation strategies, and sketches the fix the authors were
// exploring: "substitute the attributes in clear with attributes whose
// content is the hash value of the concatenation of attribute name and
// attribute value. The signature could be computed over the whole hashed
// content."
//
// This file implements that scheme as the paper describes it, plus one
// hardening step the sketch leaves implicit: each attribute hash is
// salted with a fresh random value (disclosed together with the
// attribute), otherwise low-entropy values could be brute-forced from
// the committed credential.

// hashedType marks credentials whose content attributes are commitments.
const hashedSuffix = " (hashed)"

// SelectiveCredential pairs a signed, fully-hashed credential with the
// clear attribute values and salts that allow selective opening.
type SelectiveCredential struct {
	// Committed is the issuer-signed credential whose attribute values
	// are base64(SHA-256(salt || name || value)).
	Committed *xtnl.Credential
	// clear holds the openable values keyed by attribute name.
	clear map[string]clearAttr
}

type clearAttr struct {
	value string
	salt  []byte
}

// Disclosure is what the holder actually sends: the committed credential
// plus the opened subset of attributes.
type Disclosure struct {
	Committed *xtnl.Credential
	Opened    []OpenedAttr
}

// OpenedAttr reveals one attribute of a committed credential.
type OpenedAttr struct {
	Name  string
	Value string
	Salt  []byte
}

// IssueSelective mints a selectively-disclosable credential: the
// authority signs the hashed form; the holder keeps the clear values.
func (a *Authority) IssueSelective(req IssueRequest) (*SelectiveCredential, error) {
	if req.Type == "" {
		return nil, errors.New("pki: issue selective: empty credential type")
	}
	clear := make(map[string]clearAttr, len(req.Attributes))
	hashed := make([]xtnl.Attribute, 0, len(req.Attributes))
	for _, attr := range req.Attributes {
		salt := make([]byte, 16)
		if _, err := randRead(salt); err != nil {
			return nil, fmt.Errorf("pki: issue selective: %w", err)
		}
		clear[attr.Name] = clearAttr{value: attr.Value, salt: salt}
		hashed = append(hashed, xtnl.Attribute{
			Name:  attr.Name,
			Value: commitAttr(attr.Name, attr.Value, salt),
		})
	}
	hreq := req
	hreq.Type = req.Type + hashedSuffix
	hreq.Attributes = hashed
	committed, err := a.Issue(hreq)
	if err != nil {
		return nil, err
	}
	return &SelectiveCredential{Committed: committed, clear: clear}, nil
}

func commitAttr(name, value string, salt []byte) string {
	h := sha256.New()
	h.Write(salt)
	h.Write([]byte(name))
	h.Write([]byte{0}) // unambiguous name/value split
	h.Write([]byte(value))
	return base64.StdEncoding.EncodeToString(h.Sum(nil))
}

// BaseType strips the hashed marker, returning the logical credential
// type ("ISO 9000 Certified (hashed)" → "ISO 9000 Certified").
func BaseType(hashedType string) string {
	if n := len(hashedType) - len(hashedSuffix); n > 0 && hashedType[n:] == hashedSuffix {
		return hashedType[:n]
	}
	return hashedType
}

// Disclose opens only the named attributes. Unknown names are an error —
// the holder should not silently promise attributes it cannot open.
func (s *SelectiveCredential) Disclose(names ...string) (*Disclosure, error) {
	d := &Disclosure{Committed: s.Committed.Clone()}
	for _, n := range names {
		ca, ok := s.clear[n]
		if !ok {
			return nil, fmt.Errorf("pki: credential %s has no attribute %q to disclose", s.Committed.ID, n)
		}
		d.Opened = append(d.Opened, OpenedAttr{Name: n, Value: ca.value, Salt: append([]byte(nil), ca.salt...)})
	}
	return d, nil
}

// View returns the clear, unsigned view of the credential with every
// attribute opened and the logical base type — what the holder itself
// sees. Counterparts never receive this; they receive a Disclosure.
func (s *SelectiveCredential) View() *xtnl.Credential {
	view := &xtnl.Credential{
		ID:          s.Committed.ID,
		Type:        BaseType(s.Committed.Type),
		Issuer:      s.Committed.Issuer,
		Holder:      s.Committed.Holder,
		HolderKey:   append([]byte(nil), s.Committed.HolderKey...),
		ValidFrom:   s.Committed.ValidFrom,
		ValidUntil:  s.Committed.ValidUntil,
		Sensitivity: s.Committed.Sensitivity,
	}
	// preserve committed attribute order
	for _, a := range s.Committed.Attributes {
		if ca, ok := s.clear[a.Name]; ok {
			view.SetAttr(a.Name, ca.value)
		}
	}
	return view
}

// AttributeNames lists the attributes that can be opened.
func (s *SelectiveCredential) AttributeNames() []string {
	out := make([]string, 0, len(s.clear))
	for n := range s.clear {
		out = append(out, n)
	}
	return out
}

// ErrCommitmentMismatch reports an opened value that does not match its
// commitment in the signed credential.
var ErrCommitmentMismatch = errors.New("pki: opened attribute does not match commitment")

// VerifyDisclosure checks that every opened attribute hashes to the
// committed value inside the (separately verified) signed credential,
// and returns the opened attributes as a clear credential view whose
// Type is the logical base type. The caller must first verify
// d.Committed with a TrustStore.
func VerifyDisclosure(d *Disclosure) (*xtnl.Credential, error) {
	view := &xtnl.Credential{
		ID:          d.Committed.ID,
		Type:        BaseType(d.Committed.Type),
		Issuer:      d.Committed.Issuer,
		Holder:      d.Committed.Holder,
		HolderKey:   append([]byte(nil), d.Committed.HolderKey...),
		ValidFrom:   d.Committed.ValidFrom,
		ValidUntil:  d.Committed.ValidUntil,
		Sensitivity: d.Committed.Sensitivity,
	}
	for _, o := range d.Opened {
		want, ok := d.Committed.Attr(o.Name)
		if !ok {
			return nil, fmt.Errorf("%w: attribute %q absent from committed credential %s",
				ErrCommitmentMismatch, o.Name, d.Committed.ID)
		}
		got := commitAttr(o.Name, o.Value, o.Salt)
		if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
			return nil, fmt.Errorf("%w: attribute %q of credential %s",
				ErrCommitmentMismatch, o.Name, d.Committed.ID)
		}
		view.SetAttr(o.Name, o.Value)
	}
	return view, nil
}

// SupportsSelectiveDisclosure reports whether a credential can partially
// hide its content: true for hashed-commitment credentials, false for
// plain X-TNL and X.509 credentials. The negotiation engine consults
// this to enforce the §6.3 strategy restriction.
func SupportsSelectiveDisclosure(c *xtnl.Credential) bool {
	return BaseType(c.Type) != c.Type
}
