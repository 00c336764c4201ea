package vo

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"trustvo/internal/pki"
	"trustvo/internal/reputation"
)

// Phase is the lifecycle phase of a VO (§2). Preparation is a
// member-side activity (publishing to the registry) and precedes VO
// creation, so the VO itself starts at Identification.
type Phase int

const (
	// Identification: the Initiator has defined the contract.
	Identification Phase = iota
	// Formation: candidates are being selected, invited and admitted.
	Formation
	// Operation: the VO is running under its collaboration rules.
	Operation
	// Dissolution: the VO has fulfilled its objectives and is dissolved.
	Dissolution
)

func (p Phase) String() string {
	switch p {
	case Identification:
		return "identification"
	case Formation:
		return "formation"
	case Operation:
		return "operation"
	case Dissolution:
		return "dissolution"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Member is an admitted VO participant.
type Member struct {
	Name  string
	Role  string
	Token *pki.MembershipToken // X.509 membership credential (§6.3)
	Since time.Time
}

// Violation records a detected breach of the collaboration rules.
type Violation struct {
	Member    string
	Operation string
	Detail    string
	At        time.Time
}

// AuditEntry records one monitored interaction (§2: "All the
// interactions must be monitored, ruled by security policies and any
// violation must be notified").
type AuditEntry struct {
	Member    string
	Operation string
	Allowed   bool
	Detail    string
	At        time.Time
}

// Errors reported by lifecycle operations.
var (
	ErrPhase          = errors.New("vo: operation not allowed in current phase")
	ErrUnknownRole    = errors.New("vo: unknown role")
	ErrRoleFull       = errors.New("vo: role already filled")
	ErrNotMember      = errors.New("vo: not a member")
	ErrRuleViolation  = errors.New("vo: collaboration rule violation")
	ErrRolesUncovered = errors.New("vo: mandatory roles not covered")
)

// VO is a live Virtual Organization: contract, phase, members, the
// membership certificate authority and the reputation system. All
// methods are safe for concurrent use.
type VO struct {
	Contract   *Contract
	Authority  *pki.VOAuthority
	Reputation *reputation.System

	mu         sync.RWMutex
	phase      Phase
	members    map[string]*Member // by member name
	violations []Violation
	audit      []AuditEntry
	clock      func() time.Time
}

// New creates a VO in the identification phase from a validated
// contract, minting the VO's certificate authority.
func New(c *Contract) (*VO, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	auth, err := pki.NewVOAuthority(c.VOName)
	if err != nil {
		return nil, err
	}
	return &VO{
		Contract:   c,
		Authority:  auth,
		Reputation: reputation.New(30 * 24 * time.Hour),
		phase:      Identification,
		members:    make(map[string]*Member),
		clock:      time.Now,
	}, nil
}

// SetClock overrides the time source (tests).
func (v *VO) SetClock(fn func() time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.clock = fn
}

// Phase returns the current lifecycle phase.
func (v *VO) Phase() Phase {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.phase
}

// StartFormation moves identification → formation.
func (v *VO) StartFormation() error {
	return v.transition(Identification, Formation)
}

// StartOperation moves formation → operation; every role must have at
// least MinMembers members.
func (v *VO) StartOperation() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.phase != Formation {
		return fmt.Errorf("%w: %s -> operation", ErrPhase, v.phase)
	}
	for _, r := range v.Contract.Roles {
		if v.countRoleLocked(r.Name) < r.MinMembers {
			return fmt.Errorf("%w: role %s has %d members, needs %d",
				ErrRolesUncovered, r.Name, v.countRoleLocked(r.Name), r.MinMembers)
		}
	}
	v.phase = Operation
	return nil
}

// Dissolve moves operation → dissolution, nullifying contractual
// bindings: all memberships are cleared.
func (v *VO) Dissolve() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.phase != Operation {
		return fmt.Errorf("%w: %s -> dissolution", ErrPhase, v.phase)
	}
	v.phase = Dissolution
	v.members = make(map[string]*Member)
	return nil
}

func (v *VO) transition(from, to Phase) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.phase != from {
		return fmt.Errorf("%w: %s -> %s", ErrPhase, v.phase, to)
	}
	v.phase = to
	return nil
}

// Admit adds a member to a role, minting its X.509 membership token.
// Allowed during formation (initial members) and operation (replacement
// members, §5.1: "A TN is also executed in case of a VO member
// replacement").
func (v *VO) Admit(memberName, role string) (*Member, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.phase != Formation && v.phase != Operation {
		return nil, fmt.Errorf("%w: admit during %s", ErrPhase, v.phase)
	}
	spec := v.Contract.Role(role)
	if spec == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRole, role)
	}
	if v.countRoleLocked(role) >= spec.maxMembers() {
		return nil, fmt.Errorf("%w: %s", ErrRoleFull, role)
	}
	if _, dup := v.members[memberName]; dup {
		return nil, fmt.Errorf("vo: %s is already a member", memberName)
	}
	// The member table outlives the admission request: an admitting
	// negotiation passes names decoded from the request body, and a
	// substring would keep the whole body alive (package xmldom).
	memberName, role = strings.Clone(memberName), strings.Clone(role)
	tok, err := v.Authority.IssueMembership(memberName, role, 0)
	if err != nil {
		return nil, err
	}
	m := &Member{Name: memberName, Role: role, Token: tok, Since: v.clock()}
	v.members[memberName] = m
	return m, nil
}

// Remove expels a member (contract violation or replacement).
func (v *VO) Remove(memberName string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.members[memberName]; !ok {
		return fmt.Errorf("%w: %s", ErrNotMember, memberName)
	}
	delete(v.members, memberName)
	return nil
}

// Member returns the named member, or nil.
func (v *VO) Member(name string) *Member {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.members[name]
}

// Members returns all members sorted by name.
func (v *VO) Members() []*Member {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]*Member, 0, len(v.members))
	for _, m := range v.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MembersInRole returns the members filling a role, sorted by name.
func (v *VO) MembersInRole(role string) []*Member {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var out []*Member
	for _, m := range v.members {
		if m.Role == role {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (v *VO) countRoleLocked(role string) int {
	n := 0
	for _, m := range v.members {
		if m.Role == role {
			n++
		}
	}
	return n
}

// Authorize checks a member's invocation of an operation against the
// collaboration rules: the caller must be a member, the operation must
// be in the contract, and the caller's role must be permitted. On
// success the caller earns a positive reputation event; a rule breach
// is recorded as a violation with a negative event ("All the
// interactions must be monitored, ruled by security policies and any
// violation must be notified", §2).
func (v *VO) Authorize(memberName, operation string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.phase != Operation {
		return fmt.Errorf("%w: %s during %s", ErrPhase, operation, v.phase)
	}
	// Both end up in the audit log, and maybe the violation log and a
	// reputation event: hold copies, not substrings of the request that
	// named them.
	memberName, operation = strings.Clone(memberName), strings.Clone(operation)
	m, ok := v.members[memberName]
	if !ok {
		v.audit = append(v.audit, AuditEntry{Member: memberName, Operation: operation,
			Allowed: false, Detail: "not a member", At: v.clock()})
		return fmt.Errorf("%w: %s", ErrNotMember, memberName)
	}
	rule := v.Contract.RuleFor(operation)
	if rule == nil {
		v.recordViolationLocked(memberName, operation, "operation not in contract")
		return fmt.Errorf("%w: operation %s not in contract", ErrRuleViolation, operation)
	}
	if len(rule.Callers) > 0 {
		allowed := false
		for _, r := range rule.Callers {
			if r == m.Role {
				allowed = true
				break
			}
		}
		if !allowed {
			v.recordViolationLocked(memberName, operation, "role "+m.Role+" not permitted")
			return fmt.Errorf("%w: role %s may not invoke %s", ErrRuleViolation, m.Role, operation)
		}
	}
	if rule.Target != "" && v.countRoleLocked(rule.Target) == 0 {
		// Not a violation by the caller: the providing role is vacant
		// (e.g. its member was expelled and not yet replaced).
		v.audit = append(v.audit, AuditEntry{Member: memberName, Operation: operation,
			Allowed: false, Detail: "target role " + rule.Target + " vacant", At: v.clock()})
		return fmt.Errorf("%w: role %s providing %s is vacant", ErrRolesUncovered, rule.Target, operation)
	}
	v.audit = append(v.audit, AuditEntry{Member: memberName, Operation: operation,
		Allowed: true, At: v.clock()})
	v.Reputation.Record(reputation.Event{Member: memberName, Positive: true, At: v.clock(), Note: operation})
	return nil
}

// ReportViolation records an out-of-band violation (e.g. quality-of-
// service breach detected by another member) with the given weight.
func (v *VO) ReportViolation(memberName, operation, detail string, weight float64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.members[memberName]; !ok {
		return fmt.Errorf("%w: %s", ErrNotMember, memberName)
	}
	v.recordLocked(strings.Clone(memberName), strings.Clone(operation), strings.Clone(detail), weight)
	return nil
}

// recordViolationLocked records a rule breach found by Authorize, which
// has already copied member and operation.
func (v *VO) recordViolationLocked(member, operation, detail string) {
	v.recordLocked(member, operation, detail, 2)
}

// recordLocked logs a violation in the violation and audit logs and as
// a negative reputation event of the given weight. The strings must not
// be substrings of a request.
func (v *VO) recordLocked(member, operation, detail string, weight float64) {
	v.violations = append(v.violations, Violation{Member: member, Operation: operation, Detail: detail, At: v.clock()})
	v.audit = append(v.audit, AuditEntry{Member: member, Operation: operation,
		Allowed: false, Detail: detail, At: v.clock()})
	v.Reputation.Record(reputation.Event{Member: member, Positive: false, Weight: weight, At: v.clock(), Note: detail})
}

// Violations returns a copy of the violation log.
func (v *VO) Violations() []Violation {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return append([]Violation(nil), v.violations...)
}

// Audit returns a copy of the interaction audit log.
func (v *VO) Audit() []AuditEntry {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return append([]AuditEntry(nil), v.audit...)
}

// VerifyMembership checks a presented X.509 membership token against
// this VO's authority and current member list. Only the token of the
// member's current admission is accepted: one from an earlier admission
// of the same name, expelled since, is refused.
func (v *VO) VerifyMembership(tokenDER []byte) (*Member, error) {
	tok, err := v.Authority.VerifyMembership(tokenDER)
	if err != nil {
		return nil, err
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	m, ok := v.members[tok.Member]
	if !ok {
		return nil, fmt.Errorf("%w: %s (token valid but member expelled)", ErrNotMember, tok.Member)
	}
	if !bytes.Equal(m.Token.DER, tokenDER) {
		return nil, fmt.Errorf("%w: %s (token from an earlier admission)", ErrNotMember, tok.Member)
	}
	return m, nil
}
