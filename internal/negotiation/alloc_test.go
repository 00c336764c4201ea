package negotiation

import (
	"testing"

	"trustvo/internal/pki"
	"trustvo/internal/xtnl"
)

// TestNegotiationAllocations guards what one negotiation allocates: its
// messages, its outcome and a few slabs. The scenario is a VO join's
// (§6.3.1): the requester discloses WebDesignerQuality, whose condition
// the controller evaluates against its verify cache's tree, and
// AAAMember, both freely; every credential verification hits the cache.
// With map-based trees, per-message nonce slices and a re-encoded
// credential and tree on every cache hit it took 84 allocations, and 28
// while each XPath condition allocated its evaluation state and boxed
// its node-set.
func TestNegotiationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	ca := pki.MustNewAuthority("CertCA")
	member := xtnl.NewProfile("WebPortalCo")
	member.Add(
		ca.MustIssue(pki.IssueRequest{Type: "WebDesignerQuality", Holder: "WebPortalCo",
			Attributes: []xtnl.Attribute{{Name: "regulation", Value: "UNI EN ISO 9000"}}}),
		ca.MustIssue(pki.IssueRequest{Type: "AAAMember", Holder: "WebPortalCo"}),
	)
	requester := &Party{Name: "WebPortalCo", Profile: member, Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(ca)}
	controller := &Party{
		Name:    "AircraftCo",
		Profile: xtnl.NewProfile("AircraftCo"),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies(
			"M <- WebDesignerQuality(regulation='UNI EN ISO 9000'), AAAMember")...),
		Trust: pki.NewTrustStore(ca),
	}
	run := func() {
		out, _, err := Run(requester, controller, "M")
		if err != nil || !out.Succeeded {
			t.Fatalf("negotiation failed: %v %+v", err, out)
		}
	}
	run() // fill the verify cache and the profile's tree cache
	if allocs := testing.AllocsPerRun(200, run); allocs > 24 {
		t.Errorf("one negotiation allocates %.1f times, want at most 24", allocs)
	}
}
