// Package core implements the paper's primary contribution: the VO
// lifecycle extended with trust negotiation at its three interaction
// points (§5, Fig. 3):
//
//   - Identification: the VO Initiator defines, per role, the disclosure
//     policies that will drive admission negotiations.
//   - Formation: the Initiator engages a TN with every candidate
//     accepting its invitation; acceptance is mutual, and a successful
//     negotiation ends with the release of an X.509 VO membership
//     token minted at runtime (§6.3).
//   - Operation: members run further TNs to re-validate expiring
//     credentials, and member replacement repeats the formation
//     protocol for the vacant role.
//
// The package wires together the TN engine (internal/negotiation), the
// VO substrate (internal/vo), the public repository (internal/vo/registry)
// and the PKI (internal/pki).
package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/vo"
	"trustvo/internal/vo/registry"
	"trustvo/internal/xtnl"
)

// Invitation is the formation-phase message delivered to a candidate's
// mailbox (§6.1: "Invitations appear in the Mailbox of the new potential
// members. The message contains the text entered in the invitation
// screen.").
type Invitation struct {
	VO   string
	Role string
	Goal string
	From string
	Text string
}

// MemberAgent is the service-provider side of the lifecycle: its
// negotiation identity, its published service description and its
// mailbox. Safe for concurrent use.
type MemberAgent struct {
	Party       *negotiation.Party
	Description *registry.Description
	// AcceptInvitation decides whether to accept an invitation before
	// any negotiation starts (nil = accept everything). Acceptance in
	// TN is mutual (§5.1): the potential member can also walk away.
	AcceptInvitation func(*Invitation) bool

	mu      sync.Mutex
	mailbox []*Invitation
	tokens  map[string][]byte // VO name -> membership token DER
}

// NewMemberAgent wraps a negotiation party and its service description.
func NewMemberAgent(p *negotiation.Party, d *registry.Description) *MemberAgent {
	return &MemberAgent{Party: p, Description: d, tokens: make(map[string][]byte)}
}

// Publish registers the agent's description in the public repository
// (the preparation phase of §2).
func (a *MemberAgent) Publish(reg *registry.Registry) error {
	if a.Description == nil {
		return errors.New("core: agent has no service description to publish")
	}
	return reg.Publish(a.Description)
}

// Deliver puts an invitation in the agent's mailbox. The mailbox holds
// one pending invitation per VO and role: a repeat replaces the one held
// in its place, so the mailbox stays bounded and keeps its order.
func (a *MemberAgent) Deliver(inv *Invitation) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, held := range a.mailbox {
		if held.VO == inv.VO && held.Role == inv.Role {
			a.mailbox[i] = inv
			return
		}
	}
	a.mailbox = append(a.mailbox, inv)
}

// Mailbox returns a copy of the pending invitations.
func (a *MemberAgent) Mailbox() []*Invitation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*Invitation(nil), a.mailbox...)
}

// accepts applies the agent's acceptance policy.
func (a *MemberAgent) accepts(inv *Invitation) bool {
	if a.AcceptInvitation == nil {
		return true
	}
	return a.AcceptInvitation(inv)
}

// storeToken records the membership token received for a VO.
func (a *MemberAgent) storeToken(voName string, der []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tokens == nil {
		a.tokens = make(map[string][]byte)
	}
	a.tokens[voName] = der
}

// MembershipToken returns the agent's membership token for a VO, nil if
// it never joined.
func (a *MemberAgent) MembershipToken(voName string) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tokens[voName]
}

// RegisterTicket makes the agent's membership token for voName usable
// as a credential in future negotiations (§5.1: admission policies "can
// require … tickets attesting their participation to other VOs"). The
// ticket appears in the profile as a VOParticipation credential and is
// disclosed in its X.509 form; counterparts accept it after adding the
// issuing VO's trust anchor (pki.VOAuthority.TrustAnchor).
func (a *MemberAgent) RegisterTicket(voName string) error {
	der := a.MembershipToken(voName)
	if der == nil {
		return fmt.Errorf("core: %s holds no membership token for %s", a.Party.Name, voName)
	}
	view, err := pki.DecodeX509Attribute(der)
	if err != nil {
		return fmt.Errorf("core: membership token for %s: %w", voName, err)
	}
	a.Party.Profile.Add(view)
	if a.Party.X509 == nil {
		a.Party.X509 = make(map[string][]byte)
	}
	a.Party.X509[view.ID] = der
	return nil
}

// Initiator is the TN-extended VO Initiator: it owns the VO, the
// registry handle, and the negotiation party whose policy set carries
// the per-role admission policies.
type Initiator struct {
	VO       *vo.VO
	Party    *negotiation.Party
	Registry *registry.Registry
	// SelfCA is the initiator's own credential authority. It signs the
	// VO-property credential (§8's extension of "requesting credentials
	// that describe VO properties"): candidates whose transient
	// formation policies "check the VO Initiator affiliation … and
	// other possible VO properties that were not advertised" (§5.1)
	// verify it against this authority's key.
	SelfCA *pki.Authority
}

// VOPropertyType is the credential type describing a VO's properties.
const VOPropertyType = "VOProperty"

// NewInitiator performs the identification phase: it creates the VO from
// the contract and installs every role's admission policies into the
// initiator's disclosure-policy set ("The VO Initiator … locally defines
// the disclosure policies to be used during the TN with potential
// members. Policies are created for the specific VO and in particular
// for the roles", §5.1). The party's Grant hook is wired to admit the
// peer and mint its membership token.
func NewInitiator(contract *vo.Contract, party *negotiation.Party, reg *registry.Registry) (*Initiator, error) {
	v, err := vo.New(contract)
	if err != nil {
		return nil, err
	}
	ini := &Initiator{VO: v, Party: party, Registry: reg}
	for _, role := range contract.Roles {
		res := vo.MembershipResource(contract.VOName, role.Name)
		if len(role.AdmissionPolicies) == 0 {
			return nil, fmt.Errorf("core: role %s has no admission policies; use an explicit DELIV rule for open roles", role.Name)
		}
		for _, p := range role.AdmissionPolicies {
			cp := *p
			cp.Resource = res
			if err := party.Policies.Add(&cp); err != nil {
				return nil, fmt.Errorf("core: role %s: %w", role.Name, err)
			}
		}
	}
	party.Grant = ini.grantMembership

	// Mint the VO-property credential and place it in the initiator's
	// profile, so formation negotiations can answer candidates'
	// transient policies about the VO itself.
	selfCA, err := pki.NewAuthority(contract.Initiator)
	if err != nil {
		return nil, err
	}
	ini.SelfCA = selfCA
	voProp, err := selfCA.Issue(pki.IssueRequest{
		Type:        VOPropertyType,
		Holder:      contract.Initiator,
		Sensitivity: xtnl.SensitivityLow,
		Attributes: []xtnl.Attribute{
			{Name: "voName", Value: contract.VOName},
			{Name: "goal", Value: contract.Goal},
			{Name: "initiator", Value: contract.Initiator},
			{Name: "roles", Value: strconv.Itoa(len(contract.Roles))},
		},
	})
	if err != nil {
		return nil, err
	}
	party.Profile.Add(voProp)
	return ini, nil
}

// VOProperty returns the initiator's VO-property credential (nil if the
// profile was replaced).
func (ini *Initiator) VOProperty() *xtnl.Credential {
	for _, c := range ini.Party.Profile.ByType(VOPropertyType) {
		return c
	}
	return nil
}

// grantMembership is the negotiation Grant hook: a successful admission
// negotiation admits the peer into the role encoded in the resource name
// and returns the DER of its freshly minted X.509 membership token.
func (ini *Initiator) grantMembership(resource, peer string) ([]byte, error) {
	voName, role, ok := splitMembershipResource(resource)
	if !ok || voName != ini.VO.Contract.VOName {
		return nil, fmt.Errorf("core: grant for unexpected resource %q", resource)
	}
	m, err := ini.VO.Admit(peer, role)
	if err != nil {
		return nil, err
	}
	return m.Token.DER, nil
}

func splitMembershipResource(resource string) (voName, role string, ok bool) {
	parts := strings.Split(resource, "/")
	if len(parts) != 3 || parts[0] != "VoMembership" {
		return "", "", false
	}
	return parts[1], parts[2], true
}

// Discover queries the public repository for candidates matching a
// role's capability requirements (the formation-phase shortlist, §2).
func (ini *Initiator) Discover(role string) ([]*registry.Description, error) {
	spec := ini.VO.Contract.Role(role)
	if spec == nil {
		return nil, fmt.Errorf("%w: %s", vo.ErrUnknownRole, role)
	}
	return ini.Registry.FindByCapabilities(spec.Capabilities), nil
}

// Invite delivers a formation invitation to the candidate's mailbox.
func (ini *Initiator) Invite(agent *MemberAgent, role string) *Invitation {
	inv := &Invitation{
		VO:   ini.VO.Contract.VOName,
		Role: role,
		Goal: ini.VO.Contract.Goal,
		From: ini.VO.Contract.Initiator,
		Text: fmt.Sprintf("You are invited to join %s as %s.", ini.VO.Contract.VOName, role),
	}
	agent.Deliver(inv)
	return inv
}

// Errors reported by the join protocol.
var (
	ErrDeclined     = errors.New("core: candidate declined the invitation")
	ErrNotPublished = errors.New("core: candidate has not published a service description")
	ErrNegotiation  = errors.New("core: admission negotiation failed")
)

// JoinOptions tunes the join protocol.
type JoinOptions struct {
	// Negotiate runs the formation-phase trust negotiation (the paper's
	// integrated path). When false the candidate is admitted directly —
	// the pre-integration baseline of Fig. 9's "Join" bar.
	Negotiate bool
}

// Join runs the full §5.1/Fig. 4 join protocol for one candidate:
// repository check, invitation, mutual acceptance, trust negotiation
// (optional), admission and membership-token delivery. It returns the
// admitted member and, when a negotiation ran, its outcome.
func (ini *Initiator) Join(agent *MemberAgent, role string, opt JoinOptions) (*vo.Member, *negotiation.Outcome, error) {
	if ini.Registry.Lookup(agent.Party.Name) == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotPublished, agent.Party.Name)
	}
	inv := ini.Invite(agent, role)
	if !agent.accepts(inv) {
		return nil, nil, fmt.Errorf("%w: %s for role %s", ErrDeclined, agent.Party.Name, role)
	}
	if !opt.Negotiate {
		m, err := ini.VO.Admit(agent.Party.Name, role)
		if err != nil {
			return nil, nil, err
		}
		agent.storeToken(ini.VO.Contract.VOName, m.Token.DER)
		return m, nil, nil
	}
	resource := vo.MembershipResource(ini.VO.Contract.VOName, role)
	reqOut, _, err := negotiation.Run(agent.Party, ini.Party, resource)
	if err != nil {
		return nil, nil, err
	}
	if !reqOut.Succeeded {
		return nil, reqOut, fmt.Errorf("%w: %s", ErrNegotiation, reqOut.Reason)
	}
	agent.storeToken(ini.VO.Contract.VOName, reqOut.Grant)
	m := ini.VO.Member(agent.Party.Name)
	if m == nil {
		return nil, reqOut, errors.New("core: negotiation succeeded but member not admitted")
	}
	return m, reqOut, nil
}

// JoinFirst tries candidates in order until one joins — the Initiator
// "may engage multiple negotiations for a same role, to ensure that the
// role will be covered by at least one member" (§5.1, Fig. 4). Failed
// candidates are removed from the shortlist and the next is tried.
func (ini *Initiator) JoinFirst(agents []*MemberAgent, role string, opt JoinOptions) (*vo.Member, error) {
	var errs []string
	for _, a := range agents {
		m, _, err := ini.Join(a, role, opt)
		if err == nil {
			return m, nil
		}
		errs = append(errs, a.Party.Name+": "+err.Error())
	}
	return nil, fmt.Errorf("core: no candidate joined role %s: %s", role, strings.Join(errs, "; "))
}

// JoinConcurrent negotiates with all candidates for a role in parallel
// and keeps the first opt.Keep (default 1) that succeed (EXT-8). Excess
// successes are expelled again — the role's capacity in the VO substrate
// is the final arbiter.
func (ini *Initiator) JoinConcurrent(agents []*MemberAgent, role string, opt JoinOptions) ([]*vo.Member, error) {
	type res struct {
		m   *vo.Member
		err error
	}
	ch := make(chan res, len(agents))
	for _, a := range agents {
		go func(a *MemberAgent) {
			m, _, err := ini.Join(a, role, opt)
			ch <- res{m: m, err: err}
		}(a)
	}
	var members []*vo.Member
	var errs []string
	for range agents {
		r := <-ch
		if r.err != nil {
			errs = append(errs, r.err.Error())
			continue
		}
		members = append(members, r.m)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("core: no candidate joined role %s: %s", role, strings.Join(errs, "; "))
	}
	return members, nil
}

// Form runs the formation phase for every role: discovery, invitation
// and TN-backed joins until each role reaches MinMembers, then moves to
// operation. agents maps provider names to their agents (live endpoints
// for the shortlisted descriptions).
func (ini *Initiator) Form(agents map[string]*MemberAgent, opt JoinOptions) error {
	if err := ini.VO.StartFormation(); err != nil {
		return err
	}
	for _, role := range ini.VO.Contract.Roles {
		descs, err := ini.Discover(role.Name)
		if err != nil {
			return err
		}
		joined := len(ini.VO.MembersInRole(role.Name))
		for _, d := range descs {
			if joined >= role.MinMembers {
				break
			}
			agent, ok := agents[d.Provider]
			if !ok {
				continue
			}
			if _, _, err := ini.Join(agent, role.Name, opt); err == nil {
				joined++
			}
		}
		if joined < role.MinMembers {
			return fmt.Errorf("%w: role %s covered by %d of %d", vo.ErrRolesUncovered, role.Name, joined, role.MinMembers)
		}
	}
	return ini.VO.StartOperation()
}

// Replace handles the §5.1 operational-phase replacement: the violating
// member is reported and expelled, and the role is refilled through the
// formation protocol. It returns the new member.
func (ini *Initiator) Replace(oldMember string, candidates []*MemberAgent, opt JoinOptions) (*vo.Member, error) {
	m := ini.VO.Member(oldMember)
	if m == nil {
		return nil, fmt.Errorf("%w: %s", vo.ErrNotMember, oldMember)
	}
	role := m.Role
	if err := ini.VO.ReportViolation(oldMember, "contract", "replaced after contract violation", 3); err != nil {
		return nil, err
	}
	if err := ini.VO.Remove(oldMember); err != nil {
		return nil, err
	}
	return ini.JoinFirst(candidates, role, opt)
}

// Revalidate runs an operation-phase TN between two members (§5.1: the
// design optimization partner re-checks that the web portal's ISO
// certification "is still valid"). The requester asks the controller
// for the named resource; the result is an authorization, not a
// membership ("the result of a TN, in this case, is not a credential,
// but it is an authorization to execute the next VO operations"). A
// failed revalidation lowers the controller's reputation.
func (ini *Initiator) Revalidate(requester, controller *MemberAgent, resource string) (*negotiation.Outcome, error) {
	out, _, err := negotiation.Run(requester.Party, controller.Party, resource)
	if err != nil {
		return nil, err
	}
	if !out.Succeeded {
		if m := ini.VO.Member(controller.Party.Name); m != nil {
			_ = ini.VO.ReportViolation(controller.Party.Name, "revalidation:"+resource, out.Reason, 2)
		}
	}
	return out, nil
}

// VerifyPeerMembership lets one member check another member's X.509
// token against the VO authority (operational-phase authentication with
// the token of §5.1).
func (ini *Initiator) VerifyPeerMembership(tokenDER []byte) (*vo.Member, error) {
	return ini.VO.VerifyMembership(tokenDER)
}
