package xtnl

import (
	"errors"
	"fmt"
	"strings"

	"trustvo/internal/xmldom"
)

// Term is one requirement inside a disclosure policy: "the counterpart
// must disclose a credential of type CredType satisfying Conditions".
//
// CredType may be empty or a variable name starting with '$', expressing
// the paper's unspecified-type terms ("the credential type P can be
// unspecified, and denoted by a variable, so to express constraints on
// the counterpart properties without specifying from which types of
// credential such properties should be obtained"). The receiver then
// chooses any owned credential whose attributes satisfy the conditions.
type Term struct {
	CredType   string
	Conditions []string // XPath expressions over the candidate credential
}

// Wildcard reports whether the term leaves the credential type open.
func (t Term) Wildcard() bool {
	return t.CredType == "" || strings.HasPrefix(t.CredType, "$")
}

// SatisfiedBy reports whether cred matches the term: type equal (unless
// wildcard) and all conditions true. Compilation errors make the term
// unsatisfied.
func (t Term) SatisfiedBy(cred *Credential) bool { return t.SatisfiedByDOM(cred, nil) }

// SatisfiedByDOM is SatisfiedBy given cred's document tree (cred.DOM()),
// which a caller holding one passes instead of having it rebuilt; nil
// builds it when a condition needs it.
func (t Term) SatisfiedByDOM(cred *Credential, dom *xmldom.Node) bool {
	if !t.Wildcard() && t.CredType != cred.Type {
		return false
	}
	if len(t.Conditions) == 0 {
		return true
	}
	if dom == nil {
		dom = cred.DOM()
	}
	return t.holds(dom)
}

// holds reports whether every condition of the term is true of the
// credential document dom. A condition that does not compile is false.
// Each compiled condition comes from the process-wide memo (cache.go).
func (t Term) holds(dom *xmldom.Node) bool {
	for _, src := range t.Conditions {
		e, err := compileCondition(src)
		if err != nil || !e.Bool(dom) {
			return false
		}
	}
	return true
}

// String renders the term in DSL form; each condition becomes its own
// raw-XPath bracket so the output re-parses to the same term.
func (t Term) String() string {
	name := t.CredType
	if name == "" {
		name = "$any"
	}
	var b strings.Builder
	b.WriteString(name)
	for _, c := range t.Conditions {
		b.WriteByte('[')
		b.WriteString(c)
		b.WriteByte(']')
	}
	return b.String()
}

// Policy is a single disclosure rule: Resource ← Terms (a conjunction),
// or Resource ← DELIV when Deliver is set. A party usually holds several
// policies for the same resource; each is an alternative way to satisfy
// the release of that resource (the multiedge branches of Fig. 2).
type Policy struct {
	ID       string
	Resource string // R-term name: a credential type, service or resource
	Deliver  bool   // delivery rule: release freely
	Terms    []Term // conjunctive requirements (ignored when Deliver)

	// Concepts optionally names the ontology concepts this policy's terms
	// were abstracted to (paper §4.3.1); empty for concrete policies.
	Concepts []string
}

// String renders the policy in DSL form.
func (p Policy) String() string {
	if p.Deliver {
		return p.Resource + " <- DELIV"
	}
	parts := make([]string, len(p.Terms))
	for i, t := range p.Terms {
		parts[i] = t.String()
	}
	return p.Resource + " <- " + strings.Join(parts, ", ")
}

// Validate checks structural invariants: a resource name, and either
// DELIV or at least one term, each with compilable conditions.
func (p Policy) Validate() error {
	if p.Resource == "" {
		return errors.New("xtnl: policy without resource")
	}
	if p.Deliver {
		if len(p.Terms) > 0 {
			return fmt.Errorf("xtnl: delivery policy for %s must not carry terms", p.Resource)
		}
		return nil
	}
	if len(p.Terms) == 0 {
		return fmt.Errorf("xtnl: policy for %s has no terms and is not DELIV", p.Resource)
	}
	for _, t := range p.Terms {
		for _, c := range t.Conditions {
			if _, err := compileCondition(c); err != nil {
				return fmt.Errorf("xtnl: condition %q: %w", c, err)
			}
		}
	}
	return nil
}

// Encode writes the policy in the Fig. 7 layout:
//
//	<policy type="disclosure">
//	  <resource target="ISO 9000 Certified"/>
//	  <properties>
//	    <certificate targetCertType="AAAccreditation">
//	      <certCond>/credential/header/issuer='AAA'</certCond>
//	    </certificate>
//	  </properties>
//	</policy>
//
// Delivery rules render as <policy type="delivery"> with no properties.
func (p Policy) Encode(w *xmldom.Writer) {
	w.Start("policy")
	if p.ID != "" {
		w.Attr("polID", p.ID)
	}
	if p.Deliver {
		w.Attr("type", "delivery")
	} else {
		w.Attr("type", "disclosure")
	}
	w.Start("resource")
	w.Attr("target", p.Resource)
	w.End()
	if p.Deliver {
		w.End()
		return
	}
	w.Start("properties")
	for _, t := range p.Terms {
		w.Start("certificate")
		if !t.Wildcard() {
			w.Attr("targetCertType", t.CredType)
		} else if t.CredType != "" {
			w.Attr("var", t.CredType)
		}
		for _, cond := range t.Conditions {
			textElement(w, "certCond", cond)
		}
		w.End()
	}
	w.End()
	for _, cname := range p.Concepts {
		w.Start("concept")
		w.Attr("name", cname)
		w.End()
	}
	w.End()
}

// DOM builds the policy XML tree in the Fig. 7 layout (see Encode).
func (p Policy) DOM() *xmldom.Node { return xmldom.Tree(p.Encode) }

// XML serializes the policy in canonical form.
func (p Policy) XML() string { return xmldom.String(p.Encode) }

// ErrBadPolicy reports a malformed policy document.
var ErrBadPolicy = errors.New("xtnl: malformed policy")

// ParsePolicy decodes a Fig. 7-layout policy document from its bytes,
// building no tree.
func ParsePolicy(xmlText string) (*Policy, error) {
	r := xmldom.NewReader(xmlText)
	p, err := readPolicy(r)
	if serr := r.Close(); serr != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadPolicy, serr)
	}
	return p, err
}

// PolicyFromDOM decodes a policy from an already-parsed tree.
func PolicyFromDOM(root *xmldom.Node) (*Policy, error) {
	r := xmldom.NewNodeReader(root)
	p, err := readPolicy(r)
	r.Close()
	return p, err
}

// readPolicy reads the document's root element as a policy.
func readPolicy(r *xmldom.Reader) (*Policy, error) {
	if !r.Child(0) {
		return nil, fmt.Errorf("%w: no root element", ErrBadPolicy)
	}
	return DecodePolicy(r)
}

// DecodePolicy decodes the policy whose start tag r has just read,
// reading it to its end: the one decoder of the Fig. 7 layout, over
// bytes and over trees alike. The first <resource> and <properties>
// count, every <certificate>, <certCond> and <concept> does; a delivery
// rule reads no terms.
func DecodePolicy(r *xmldom.Reader) (*Policy, error) {
	if r.Name() != "policy" {
		return nil, fmt.Errorf("%w: root element is <%s>, want <policy>", ErrBadPolicy, r.Name())
	}
	p := &Policy{ID: r.AttrOr("polID", "")}
	deliver := r.AttrOr("type", "disclosure") == "delivery"
	var haveRes, haveProps bool
	var terms []Term
	var concepts []string
	for d := r.Depth(); r.Child(d); {
		switch r.Name() {
		case "resource":
			if !haveRes {
				haveRes = true
				p.Resource = r.AttrOr("target", "")
			}
		case "properties":
			if !haveProps && !deliver {
				haveProps = true
				terms = readTerms(r)
			}
		case "concept":
			concepts = append(concepts, r.AttrOr("name", ""))
		}
	}
	if !haveRes {
		return nil, fmt.Errorf("%w: missing <resource>", ErrBadPolicy)
	}
	if p.Resource == "" {
		return nil, fmt.Errorf("%w: <resource> without target", ErrBadPolicy)
	}
	if deliver {
		p.Deliver = true
		return p, nil
	}
	if !haveProps {
		return nil, fmt.Errorf("%w: disclosure policy for %s without <properties>", ErrBadPolicy, p.Resource)
	}
	p.Terms, p.Concepts = terms, concepts
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadPolicy, err)
	}
	return p, nil
}

// readTerms reads the <properties> element whose start tag r has just
// read: one term per <certificate>.
func readTerms(r *xmldom.Reader) []Term {
	var terms []Term
	for d := r.Depth(); r.Child(d); {
		if r.Name() != "certificate" {
			continue
		}
		t := Term{CredType: r.AttrOr("targetCertType", r.AttrOr("var", ""))}
		for d := r.Depth(); r.Child(d); {
			if r.Name() == "certCond" {
				t.Conditions = append(t.Conditions, strings.TrimSpace(r.Text()))
			}
		}
		terms = append(terms, t)
	}
	return terms
}

// PolicySet is a party's collection of disclosure policies, indexed by
// protected resource. Multiple policies for one resource are disjunctive
// alternatives.
type PolicySet struct {
	policies []*Policy
	byRes    map[string][]*Policy
}

// NewPolicySet builds a set from the given policies. It fails if any
// policy is invalid. The index shares one backing array: a first pass
// counts each resource's alternatives, held meanwhile as the lengths of
// windows of that array, and each resource then gets a window of its
// own, filled in insertion order and full to its capacity, so a later
// Add to it reallocates instead of writing over its neighbour's.
func NewPolicySet(policies ...*Policy) (*PolicySet, error) {
	backing := make([]*Policy, len(policies))
	byRes := make(map[string][]*Policy, len(policies))
	for _, p := range policies {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		byRes[p.Resource] = backing[:len(byRes[p.Resource])+1]
	}
	off := 0
	for r, alts := range byRes {
		byRes[r] = backing[off : off : off+len(alts)]
		off += len(alts)
	}
	for _, p := range policies {
		byRes[p.Resource] = append(byRes[p.Resource], p)
	}
	return &PolicySet{policies: append([]*Policy(nil), policies...), byRes: byRes}, nil
}

// MustPolicySet is NewPolicySet that panics on error, for fixtures.
func MustPolicySet(policies ...*Policy) *PolicySet {
	s, err := NewPolicySet(policies...)
	if err != nil {
		panic(err)
	}
	return s
}

// Add validates and inserts a policy.
func (s *PolicySet) Add(p *Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if s.byRes == nil {
		s.byRes = make(map[string][]*Policy)
	}
	s.policies = append(s.policies, p)
	s.byRes[p.Resource] = append(s.byRes[p.Resource], p)
	return nil
}

// For returns all alternative policies protecting resource, nil if the
// resource is unknown (meaning: the party holds no rule releasing it).
func (s *PolicySet) For(resource string) []*Policy {
	if s == nil {
		return nil
	}
	return s.byRes[resource]
}

// All returns every policy in insertion order.
func (s *PolicySet) All() []*Policy { return s.policies }

// Len returns the number of policies.
func (s *PolicySet) Len() int { return len(s.policies) }

// Resources returns the set of protected resource names.
func (s *PolicySet) Resources() []string {
	out := make([]string, 0, len(s.byRes))
	for r := range s.byRes {
		out = append(out, r)
	}
	return out
}
