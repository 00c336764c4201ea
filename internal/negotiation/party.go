package negotiation

import (
	"errors"
	"fmt"
	"time"

	"trustvo/internal/ontology"
	"trustvo/internal/pki"
	"trustvo/internal/telemetry"
	"trustvo/internal/xtnl"
)

// Party is the negotiation-relevant identity of one participant: its
// X-Profile, disclosure policies, trust anchors, optional semantic layer
// and strategy. A Party is shared by all of that participant's
// negotiations; per-negotiation state lives in Endpoint.
type Party struct {
	Name string
	// Profile holds the party's credentials (X-Profile).
	Profile *xtnl.Profile
	// Policies holds the party's disclosure policies.
	Policies *xtnl.PolicySet
	// Trust verifies counterpart credentials.
	Trust *pki.TrustStore
	// Strategy selects the negotiation behaviour (default Standard).
	Strategy Strategy
	// Mapper, when set, enables the §4.3 semantic layer: concept-level
	// terms in received policies are resolved through the local ontology
	// (Algorithm 1), and — with AbstractLevels > 0 — outgoing policies
	// are abstracted to concepts before being sent.
	Mapper *ontology.Mapper
	// AbstractLevels abstracts outgoing policies to concepts, climbing
	// that many is_a levels (0 disables abstraction).
	AbstractLevels int
	// Keys is the party's holder key pair, used to prove credential
	// ownership when the counterpart demands it.
	Keys *pki.KeyPair
	// Selective maps committed-credential IDs to their selective
	// credentials, enabling partial hiding under suspicious strategies.
	Selective map[string]*pki.SelectiveCredential
	// X509 maps credential IDs to their X.509 attribute-certificate DER
	// encoding (§6.3 dual-format support). When PreferX509 is set,
	// credentials with an entry here are disclosed in X.509 form.
	X509 map[string][]byte
	// PreferX509 discloses credentials as X.509 attribute certificates
	// when an encoding is available.
	PreferX509 bool
	// Chains holds AuthorityDelegation credentials this party attaches
	// to disclosures whose issuer may be unknown to counterparts.
	Chains []*xtnl.Credential
	// Grant supplies the MsgSuccess payload when this party controls the
	// negotiated resource (e.g. a serialized membership certificate).
	// nil means an empty grant.
	Grant func(resource, peer string) ([]byte, error)
	// Clock supplies the verification time (defaults to time.Now).
	Clock func() time.Time
	// Trace, when set, observes every protocol message this party's
	// endpoints send ("send") and receive ("recv") — the monitoring
	// hook behind the paper's "GUI … enabling [users] to monitor the
	// negotiation process".
	Trace func(direction string, m *Message)
	// Metrics, when set, receives per-negotiation telemetry: outcome and
	// disclosure counters, verification failures, and phase-latency
	// histograms keyed by role (see README "Observability" for series
	// names). nil disables collection at the cost of one branch per
	// recording site.
	Metrics *telemetry.Registry
	// Recorder, when set, enables span tracing on this party's endpoints
	// and is invoked with the finished negotiation's trace: one root span
	// with children for each protocol phase and message handled. The
	// trace is also readable mid-flight via Endpoint.Trace.
	Recorder func(*telemetry.Trace)
	// TicketTTL, when positive, makes this party (as controller) attach
	// a trust ticket to every successful grant; a requester presenting
	// that ticket later skips the negotiation phases entirely (the
	// Trust-X trust-ticket mechanism). Requires Keys.
	TicketTTL time.Duration
	// Tickets caches received trust tickets; requester endpoints
	// present a matching cached ticket automatically.
	Tickets *TicketCache
	// MaxRounds bounds the number of protocol messages an endpoint of
	// this party will process (0 = default 512).
	MaxRounds int
	// MaxTreeNodes bounds the negotiation tree size (0 = default 4096):
	// a counterpart sending combinatorially exploding policies (a
	// "policy bomb") fails the negotiation instead of exhausting memory.
	MaxTreeNodes int
}

func (p *Party) now() time.Time {
	if p.Clock != nil {
		return p.Clock()
	}
	return time.Now()
}

func (p *Party) maxRounds() int {
	if p.MaxRounds > 0 {
		return p.MaxRounds
	}
	return 512
}

func (p *Party) maxTreeNodes() int {
	if p.MaxTreeNodes > 0 {
		return p.MaxTreeNodes
	}
	return 4096
}

// candidate is a disclosable credential matching a term: either a plain
// credential or a selective one.
type candidate struct {
	cred      *xtnl.Credential         // the plain credential (or clear view)
	selective *pki.SelectiveCredential // non-nil when partial hiding possible
}

func (c candidate) sensitivity() xtnl.Sensitivity {
	if c.selective != nil {
		return c.selective.Committed.Sensitivity
	}
	return c.cred.Sensitivity
}

// errNoCandidate reports that the party holds nothing satisfying a term.
var errNoCandidate = errors.New("negotiation: no satisfying credential")

// resolveTerm appends the party's candidates for a term to out, least
// sensitive first. Concept-level terms go through the ontology mapper;
// plain terms through the profile; selective credentials are matched on
// their clear views.
func (p *Party) resolveTerm(out []candidate, term xtnl.Term) ([]candidate, error) {

	// Selective credentials: match the term against the clear view.
	for _, sc := range p.Selective {
		view := sc.View()
		checkTerm := term
		if concept, ok := ontology.AsConceptRef(term.CredType); ok {
			conds, ok := p.conceptConditions(concept, view.Type, term.Conditions)
			if !ok {
				continue
			}
			checkTerm = xtnl.Term{Conditions: conds}
		}
		if checkTerm.SatisfiedBy(view) {
			out = append(out, candidate{cred: view, selective: sc})
		}
	}

	if concept, ok := ontology.AsConceptRef(term.CredType); ok {
		if p.Mapper == nil {
			return nil, fmt.Errorf("%w: concept term %q but party %s has no ontology",
				errNoCandidate, concept, p.Name)
		}
		creds, err := p.Mapper.ResolveTerm(term)
		if err != nil {
			if len(out) > 0 {
				return sortCandidates(out), nil
			}
			return nil, fmt.Errorf("%w: %w", errNoCandidate, err)
		}
		for _, c := range creds {
			out = append(out, candidate{cred: c})
		}
		return sortCandidates(out), nil
	}

	var buf [4]*xtnl.Credential
	for _, c := range p.Profile.AppendSatisfying(buf[:0], term) {
		out = append(out, candidate{cred: c})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: type %q", errNoCandidate, term.CredType)
	}
	return sortCandidates(out), nil
}

// conceptConditions maps the conditions of a term on concept onto a
// credential of credType that p holds: through concept itself when
// credType implements it, else through the most similar local concept
// that credType implements, for a foreign concept name. ok is false when
// neither applies or p has no ontology.
func (p *Party) conceptConditions(concept, credType string, conds []string) ([]string, bool) {
	if p.Mapper == nil {
		return nil, false
	}
	if out, ok := implConditions(p.Mapper, concept, credType, conds); ok {
		return out, true
	}
	if best := p.Mapper.Ontology.BestMatchName(concept); best.Concept != "" {
		return implConditions(p.Mapper, best.Concept, credType, conds)
	}
	return nil, false
}

// implConditions rewrites the conditions of a term on concept into the
// attribute names of credType's implementation of it in m's ontology; ok
// is false when credType does not implement concept there. A discloser
// choosing what to open and a verifier checking what was opened both map
// a concept term through it, so they read the same attributes.
func implConditions(m *ontology.Mapper, concept, credType string, conds []string) ([]string, bool) {
	for _, im := range m.Ontology.ImplementationsOf(concept) {
		if im.CredType == credType {
			return m.Ontology.ToImplConditions(concept, credType, conds), true
		}
	}
	return nil, false
}

// sortCandidates orders candidates by ascending sensitivity (stable),
// implementing the CredCluster preference of Algorithm 1.
func sortCandidates(cands []candidate) []candidate {
	// insertion sort: candidate lists are tiny
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].sensitivity() < cands[j-1].sensitivity(); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	return cands
}

// protectingPolicies returns the party's disclosure policies for a
// credential type, abstracted to concepts when configured. A nil result
// means the credential is unprotected (freely disclosable); policies
// containing a delivery rule likewise mean free disclosure.
func (p *Party) protectingPolicies(credType string) (alts []*xtnl.Policy, free bool) {
	pols := p.Policies.For(credType)
	if len(pols) == 0 {
		return nil, true
	}
	for _, pol := range pols {
		if pol.Deliver {
			return nil, true
		}
	}
	if p.AbstractLevels > 0 && p.Mapper != nil {
		abstracted := make([]*xtnl.Policy, len(pols))
		for i, pol := range pols {
			abstracted[i] = ontology.Abstract(pol, p.Mapper.Ontology, p.AbstractLevels)
		}
		return abstracted, false
	}
	return pols, false
}
