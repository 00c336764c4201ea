package xtnl

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"trustvo/internal/xmldom"
)

// Profile is a party's X-Profile: "All credentials associated with a
// party are collected into a unique XML document, referred to as
// X-Profile" (§4.1). It indexes credentials by type and by sensitivity
// for the Algorithm 1 clustering (ontology.Map).
type Profile struct {
	Owner string
	creds []*Credential

	// domMu guards doms, the per-credential DOM cache consulted by
	// Satisfying. Policy evaluation runs every term's XPath conditions
	// against the credential document; even built from slabs, that
	// document for each (term, credential) pair costs more than the
	// cache (see cache.go). Credentials are treated as immutable once
	// added (they are signed). The cache is keyed by the credential
	// itself, not its ID: an issuer chooses the ID, so credentials from
	// two authorities can share one.
	domMu sync.Mutex
	doms  map[*Credential]*xmldom.Node
}

// NewProfile returns an empty profile for owner.
func NewProfile(owner string) *Profile {
	return &Profile{Owner: owner}
}

// Add appends credentials to the profile.
func (p *Profile) Add(creds ...*Credential) {
	p.creds = append(p.creds, creds...)
}

// Remove deletes the credential with the given ID, reporting whether it
// was present.
func (p *Profile) Remove(id string) bool {
	for i, c := range p.creds {
		if c.ID == id {
			p.creds = append(p.creds[:i], p.creds[i+1:]...)
			p.domMu.Lock()
			defer p.domMu.Unlock()
			delete(p.doms, c)
			return true
		}
	}
	return false
}

// credDOM returns the credential's canonical DOM, cached per credential.
func (p *Profile) credDOM(c *Credential) *xmldom.Node {
	p.domMu.Lock()
	defer p.domMu.Unlock()
	if dom, ok := p.doms[c]; ok {
		return dom
	}
	dom := c.DOM()
	if p.doms == nil {
		p.doms = make(map[*Credential]*xmldom.Node)
	}
	p.doms[c] = dom
	return dom
}

// All returns the credentials in insertion order.
func (p *Profile) All() []*Credential { return p.creds }

// Len returns the number of credentials held.
func (p *Profile) Len() int { return len(p.creds) }

// ByType returns every credential of the given type.
func (p *Profile) ByType(credType string) []*Credential {
	var out []*Credential
	for _, c := range p.creds {
		if c.Type == credType {
			out = append(out, c)
		}
	}
	return out
}

// ByID returns the credential with the given ID, or nil.
func (p *Profile) ByID(id string) *Credential {
	for _, c := range p.creds {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// Satisfying returns the credentials that satisfy term, least sensitive
// first (the disclosure preference of Algorithm 1: the low cluster is
// consulted before medium before high). Condition evaluation reuses the
// profile's parsed-DOM cache instead of rebuilding each credential
// document per term.
func (p *Profile) Satisfying(term Term) []*Credential { return p.AppendSatisfying(nil, term) }

// AppendSatisfying appends the credentials that satisfy term to dst,
// ordered as Satisfying orders them, and returns the extended slice.
func (p *Profile) AppendSatisfying(dst []*Credential, term Term) []*Credential {
	start := len(dst)
	for _, c := range p.creds {
		if !term.Wildcard() && term.CredType != c.Type {
			continue
		}
		if len(term.Conditions) == 0 || term.holds(p.credDOM(c)) {
			dst = append(dst, c)
		}
	}
	slices.SortStableFunc(dst[start:], func(a, b *Credential) int { return cmp.Compare(a.Sensitivity, b.Sensitivity) })
	return dst
}

// Cluster returns the credentials among cands having exactly the given
// sensitivity, in order. This is the paper's CredCluster function.
func Cluster(cands []*Credential, s Sensitivity) []*Credential {
	var out []*Credential
	for _, c := range cands {
		if c.Sensitivity == s {
			out = append(out, c)
		}
	}
	return out
}

// DOM serializes the X-Profile as a single XML document.
func (p *Profile) DOM() *xmldom.Node {
	root := xmldom.NewElement("X-Profile").SetAttr("owner", p.Owner)
	for _, c := range p.creds {
		root.AppendChild(c.DOM())
	}
	return root
}

// XML serializes the profile in canonical form.
func (p *Profile) XML() string { return p.DOM().XML() }

// ParseProfile decodes an X-Profile document.
func ParseProfile(xmlText string) (*Profile, error) {
	root, err := xmldom.ParseString(xmlText)
	if err != nil {
		return nil, fmt.Errorf("xtnl: malformed X-Profile: %w", err)
	}
	if root.Name != "X-Profile" {
		return nil, fmt.Errorf("xtnl: root element is <%s>, want <X-Profile>", root.Name)
	}
	p := NewProfile(root.AttrOr("owner", ""))
	for _, el := range root.Childs("credential") {
		c, err := CredentialFromDOM(el)
		if err != nil {
			return nil, err
		}
		p.Add(c)
	}
	return p, nil
}
