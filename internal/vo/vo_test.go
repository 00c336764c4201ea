package vo

import (
	"errors"
	"strings"
	"testing"
	"time"
	"unsafe"

	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

func aircraftContract() *Contract {
	return &Contract{
		VOName:    "AircraftOptimizationVO",
		Goal:      "low-emission wing design",
		Initiator: "AircraftCo",
		Roles: []RoleSpec{
			{Name: "DesignWebPortal", Capabilities: []string{"design-db"}, MinMembers: 1,
				AdmissionPolicies: xtnl.MustParsePolicies(
					"VoMembership/AircraftOptimizationVO/DesignWebPortal <- WebDesignerQuality(regulation='UNI EN ISO 9000')")},
			{Name: "HPC", Capabilities: []string{"simulation"}, MinMembers: 1, MaxMembers: 2},
			{Name: "Storage", MinMembers: 0},
		},
		Rules: []Rule{
			{Operation: "optimize", Callers: []string{"DesignWebPortal"}, Target: "HPC"},
			{Operation: "store", Target: "Storage"},
		},
	}
}

func TestContractValidate(t *testing.T) {
	if err := aircraftContract().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Contract)
	}{
		{"no name", func(c *Contract) { c.VOName = "" }},
		{"no initiator", func(c *Contract) { c.Initiator = "" }},
		{"no roles", func(c *Contract) { c.Roles = nil }},
		{"unnamed role", func(c *Contract) { c.Roles[0].Name = "" }},
		{"duplicate role", func(c *Contract) { c.Roles[1].Name = c.Roles[0].Name }},
		{"bad bounds", func(c *Contract) { c.Roles[0].MinMembers = 5; c.Roles[0].MaxMembers = 2 }},
		{"bad policy", func(c *Contract) { c.Roles[0].AdmissionPolicies = []*xtnl.Policy{{}} }},
		{"rule without op", func(c *Contract) { c.Rules[0].Operation = "" }},
		{"rule unknown target", func(c *Contract) { c.Rules[0].Target = "Nope" }},
		{"rule unknown caller", func(c *Contract) { c.Rules[0].Callers = []string{"Nope"} }},
	}
	for _, tc := range cases {
		c := aircraftContract()
		tc.mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	v, err := New(aircraftContract())
	if err != nil {
		t.Fatal(err)
	}
	if v.Phase() != Identification {
		t.Fatalf("initial phase = %v", v.Phase())
	}
	if err := v.StartFormation(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Admit("AerospaceCo", "DesignWebPortal"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Admit("HPCServiceCo", "HPC"); err != nil {
		t.Fatal(err)
	}
	if err := v.StartOperation(); err != nil {
		t.Fatal(err)
	}
	if v.Phase() != Operation {
		t.Fatalf("phase = %v", v.Phase())
	}
	if err := v.Dissolve(); err != nil {
		t.Fatal(err)
	}
	if len(v.Members()) != 0 {
		t.Fatal("dissolution should nullify memberships")
	}
}

func TestPhaseGuards(t *testing.T) {
	v, _ := New(aircraftContract())
	if _, err := v.Admit("x", "HPC"); !errors.Is(err, ErrPhase) {
		t.Fatalf("admit in identification: %v", err)
	}
	if err := v.StartOperation(); !errors.Is(err, ErrPhase) {
		t.Fatalf("operation from identification: %v", err)
	}
	if err := v.Dissolve(); !errors.Is(err, ErrPhase) {
		t.Fatalf("dissolve from identification: %v", err)
	}
	v.StartFormation()
	if err := v.StartFormation(); !errors.Is(err, ErrPhase) {
		t.Fatalf("double formation: %v", err)
	}
	if err := v.Authorize("x", "optimize"); !errors.Is(err, ErrPhase) {
		t.Fatalf("authorize during formation: %v", err)
	}
}

func TestStartOperationRequiresMinMembers(t *testing.T) {
	v, _ := New(aircraftContract())
	v.StartFormation()
	if err := v.StartOperation(); !errors.Is(err, ErrRolesUncovered) {
		t.Fatalf("expected ErrRolesUncovered, got %v", err)
	}
}

func TestAdmitConstraints(t *testing.T) {
	v, _ := New(aircraftContract())
	v.StartFormation()
	if _, err := v.Admit("x", "NoSuchRole"); !errors.Is(err, ErrUnknownRole) {
		t.Fatalf("unknown role: %v", err)
	}
	if _, err := v.Admit("a", "DesignWebPortal"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Admit("b", "DesignWebPortal"); !errors.Is(err, ErrRoleFull) {
		t.Fatalf("role capacity: %v", err)
	}
	if _, err := v.Admit("a", "HPC"); err == nil {
		t.Fatal("duplicate member admitted")
	}
	// HPC allows two members
	if _, err := v.Admit("h1", "HPC"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Admit("h2", "HPC"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Admit("h3", "HPC"); !errors.Is(err, ErrRoleFull) {
		t.Fatalf("HPC capacity: %v", err)
	}
	if got := len(v.MembersInRole("HPC")); got != 2 {
		t.Fatalf("HPC members = %d", got)
	}
}

func TestMembershipTokenVerifies(t *testing.T) {
	v, _ := New(aircraftContract())
	v.StartFormation()
	m, err := v.Admit("AerospaceCo", "DesignWebPortal")
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.VerifyMembership(m.Token.DER)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "AerospaceCo" || got.Role != "DesignWebPortal" {
		t.Fatalf("verified member = %+v", got)
	}
	// expelled members fail verification even with a valid token
	v.Remove("AerospaceCo")
	if _, err := v.VerifyMembership(m.Token.DER); !errors.Is(err, ErrNotMember) {
		t.Fatalf("expelled member token: %v", err)
	}
}

func TestEarlierAdmissionTokenRefused(t *testing.T) {
	v, _ := New(aircraftContract())
	v.StartFormation()
	first, err := v.Admit("AerospaceCo", "DesignWebPortal")
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Remove("AerospaceCo"); err != nil {
		t.Fatal(err)
	}
	second, err := v.Admit("AerospaceCo", "DesignWebPortal")
	if err != nil {
		t.Fatal(err)
	}
	// the expulsion stands for the first admission's token
	if _, err := v.VerifyMembership(first.Token.DER); !errors.Is(err, ErrNotMember) {
		t.Fatalf("token from before the expulsion: %v, want ErrNotMember", err)
	}
	got, err := v.VerifyMembership(second.Token.DER)
	if err != nil {
		t.Fatalf("current token: %v", err)
	}
	if got != second {
		t.Fatalf("current token verified as %+v, want %+v", got, second)
	}
}

func opReadyVO(t *testing.T) *VO {
	t.Helper()
	v, err := New(aircraftContract())
	if err != nil {
		t.Fatal(err)
	}
	v.SetClock(func() time.Time { return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC) })
	v.StartFormation()
	v.Admit("AerospaceCo", "DesignWebPortal")
	v.Admit("HPCServiceCo", "HPC")
	v.Admit("StorageCo", "Storage")
	if err := v.StartOperation(); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAuthorizeCollaborationRules(t *testing.T) {
	v := opReadyVO(t)
	if err := v.Authorize("AerospaceCo", "optimize"); err != nil {
		t.Fatalf("allowed operation rejected: %v", err)
	}
	// role not in callers list
	if err := v.Authorize("HPCServiceCo", "optimize"); !errors.Is(err, ErrRuleViolation) {
		t.Fatalf("disallowed caller: %v", err)
	}
	// operation with no caller restriction: any member
	if err := v.Authorize("HPCServiceCo", "store"); err != nil {
		t.Fatalf("open operation rejected: %v", err)
	}
	// unknown operation
	if err := v.Authorize("AerospaceCo", "exfiltrate"); !errors.Is(err, ErrRuleViolation) {
		t.Fatalf("unknown operation: %v", err)
	}
	// non-member
	if err := v.Authorize("Stranger", "optimize"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("non-member: %v", err)
	}
	if got := len(v.Violations()); got != 2 {
		t.Fatalf("violations logged = %d, want 2", got)
	}
}

func TestReputationTracksOperations(t *testing.T) {
	v := opReadyVO(t)
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	base := v.Reputation.Score("AerospaceCo", now)
	v.Authorize("AerospaceCo", "optimize")
	if v.Reputation.Score("AerospaceCo", now) <= base {
		t.Fatal("successful operation should raise reputation")
	}
	hpcBase := v.Reputation.Score("HPCServiceCo", now)
	if err := v.ReportViolation("HPCServiceCo", "simulate", "missed deadline", 3); err != nil {
		t.Fatal(err)
	}
	if v.Reputation.Score("HPCServiceCo", now) >= hpcBase {
		t.Fatal("violation should lower reputation")
	}
	if err := v.ReportViolation("Stranger", "x", "y", 1); !errors.Is(err, ErrNotMember) {
		t.Fatalf("violation for non-member: %v", err)
	}
}

func TestReplacementDuringOperation(t *testing.T) {
	v := opReadyVO(t)
	if err := v.Remove("HPCServiceCo"); err != nil {
		t.Fatal(err)
	}
	// admission of a replacement is allowed during operation
	if _, err := v.Admit("BetterHPCCo", "HPC"); err != nil {
		t.Fatal(err)
	}
	if v.Member("BetterHPCCo") == nil {
		t.Fatal("replacement not admitted")
	}
	if err := v.Remove("HPCServiceCo"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestContractLookups(t *testing.T) {
	c := aircraftContract()
	if c.Role("HPC") == nil || c.Role("Nope") != nil {
		t.Fatal("Role lookup broken")
	}
	if c.RuleFor("optimize") == nil || c.RuleFor("nope") != nil {
		t.Fatal("RuleFor lookup broken")
	}
	if MembershipResource("V", "R") != "VoMembership/V/R" {
		t.Fatal("membership resource format changed")
	}
}

func TestAuditLogRecordsInteractions(t *testing.T) {
	v := opReadyVO(t)
	v.Authorize("AerospaceCo", "optimize")  // allowed
	v.Authorize("HPCServiceCo", "optimize") // rule violation
	v.Authorize("Stranger", "optimize")     // not a member
	v.ReportViolation("StorageCo", "store", "slow", 1)

	audit := v.Audit()
	if len(audit) != 4 {
		t.Fatalf("audit entries = %d, want 4", len(audit))
	}
	if !audit[0].Allowed || audit[0].Member != "AerospaceCo" {
		t.Fatalf("entry 0: %+v", audit[0])
	}
	if audit[1].Allowed || audit[1].Member != "HPCServiceCo" {
		t.Fatalf("entry 1: %+v", audit[1])
	}
	if audit[2].Allowed || audit[2].Detail != "not a member" {
		t.Fatalf("entry 2: %+v", audit[2])
	}
	if audit[3].Allowed || audit[3].Member != "StorageCo" {
		t.Fatalf("entry 3: %+v", audit[3])
	}
	// returned slice is a copy
	audit[0].Member = "mutated"
	if v.Audit()[0].Member != "AerospaceCo" {
		t.Fatal("Audit returned a mutable reference")
	}
}

func TestAuthorizeRequiresTargetRoleFilled(t *testing.T) {
	v := opReadyVO(t)
	// expel the HPC provider: 'optimize' targets the HPC role
	if err := v.Remove("HPCServiceCo"); err != nil {
		t.Fatal(err)
	}
	err := v.Authorize("AerospaceCo", "optimize")
	if !errors.Is(err, ErrRolesUncovered) {
		t.Fatalf("vacant target: %v", err)
	}
	// refilling the role restores the operation
	if _, err := v.Admit("NewHPCCo", "HPC"); err != nil {
		t.Fatal(err)
	}
	if err := v.Authorize("AerospaceCo", "optimize"); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

func TestDissolutionInvalidatesTokens(t *testing.T) {
	v := opReadyVO(t)
	m := v.Member("AerospaceCo")
	if err := v.Dissolve(); err != nil {
		t.Fatal(err)
	}
	// the X.509 token still verifies cryptographically but the member
	// binding is nullified (§2: "final operations are performed to
	// nullify all contractual binding of the VO's members")
	if _, err := v.VerifyMembership(m.Token.DER); !errors.Is(err, ErrNotMember) {
		t.Fatalf("token after dissolution: %v", err)
	}
}

// TestAdmitClonesStrings checks that an admitted member keeps none of
// its admission request alive: the admitting negotiation passes the
// peer's name and the role out of the requested resource, decoded from
// the request body, whose strings are substrings of the whole body.
func TestAdmitClonesStrings(t *testing.T) {
	body := `<tnMessage type="request" from="WebPortalCo" ` +
		`resource="VoMembership/AircraftOptimizationVO/DesignWebPortal" strategy="standard"/>`
	root, err := xmldom.ParseString(body)
	if err != nil {
		t.Fatal(err)
	}
	name := root.AttrOr("from", "")
	role := strings.Split(root.AttrOr("resource", ""), "/")[2]
	within := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		b := uintptr(unsafe.Pointer(unsafe.StringData(body)))
		return s != "" && p >= b && p < b+uintptr(len(body))
	}
	if !within(name) || !within(role) {
		t.Fatal("test setup: the decoded name and role are not substrings of the body")
	}
	v, err := New(aircraftContract())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.StartFormation(); err != nil {
		t.Fatal(err)
	}
	m, err := v.Admit(name, role)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "WebPortalCo" || m.Role != "DesignWebPortal" {
		t.Fatalf("member %+v", m)
	}
	for key, held := range v.members {
		if within(key) || within(held.Name) || within(held.Role) {
			t.Errorf("member %q (role %q) holds a substring of the admission request", held.Name, held.Role)
		}
	}
}

// TestAuthorizeClonesStrings: the member, operation and detail a
// toolkit handler takes from the request URI are substrings of the
// request line. Authorize and ReportViolation keep them in the audit
// log, the violation log and reputation events, so they must keep
// copies, not the request.
func TestAuthorizeClonesStrings(t *testing.T) {
	uri := "/vo/operate?member=AerospaceCo&operation=optimize&bad=exfiltrate&detail=late+delivery&stranger=Stranger"
	cut := func(key string) string {
		i := strings.Index(uri, key+"=") + len(key) + 1
		j := strings.IndexByte(uri[i:], '&')
		if j < 0 {
			return uri[i:]
		}
		return uri[i : i+j]
	}
	within := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		b := uintptr(unsafe.Pointer(unsafe.StringData(uri)))
		return s != "" && p >= b && p < b+uintptr(len(uri))
	}
	member, op, bad, detail, stranger := cut("member"), cut("operation"), cut("bad"), cut("detail"), cut("stranger")
	if !within(member) || !within(op) || !within(detail) {
		t.Fatal("test setup: the strings are not substrings of the request URI")
	}
	v := opReadyVO(t)
	if err := v.Authorize(member, op); err != nil {
		t.Fatal(err)
	}
	if err := v.Authorize(member, bad); !errors.Is(err, ErrRuleViolation) {
		t.Fatalf("unknown operation: %v", err)
	}
	if err := v.Authorize(stranger, op); !errors.Is(err, ErrNotMember) {
		t.Fatalf("non-member: %v", err)
	}
	if err := v.ReportViolation(member, op, detail, 1); err != nil {
		t.Fatal(err)
	}
	for _, a := range v.Audit() {
		if within(a.Member) || within(a.Operation) || within(a.Detail) {
			t.Errorf("audit entry %+v holds a substring of the request", a)
		}
	}
	if len(v.Violations()) != 2 {
		t.Fatalf("violations = %+v", v.Violations())
	}
	for _, x := range v.Violations() {
		if within(x.Member) || within(x.Operation) || within(x.Detail) {
			t.Errorf("violation %+v holds a substring of the request", x)
		}
	}
	events := v.Reputation.Events("AerospaceCo")
	if len(events) != 3 {
		t.Fatalf("reputation events = %+v", events)
	}
	for _, e := range events {
		if within(e.Member) || within(e.Note) {
			t.Errorf("reputation event %+v holds a substring of the request", e)
		}
	}
}
