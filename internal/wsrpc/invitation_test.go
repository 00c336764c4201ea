package wsrpc

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"trustvo/internal/core"
	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/vo"
	"trustvo/internal/vo/registry"
	"trustvo/internal/xtnl"
)

var updateInvitations = flag.Bool("update-invitations", false, "rewrite testdata/invitations.golden from this tree")

// TestInvitationWireGolden pins what /vo/apply and /vo/mailbox carry,
// each request's method and URI and each reply's status and body, to
// testdata/invitations.golden byte for byte. It applies for two roles
// and reads the mailbox under two contracts: the fixture's, and one
// with no goal whose names need escaping in the query and in XML. The
// invitations the member client decodes must be the ones the toolkit
// issued. Run with -update-invitations to record the file from this
// tree.
func TestInvitationWireGolden(t *testing.T) {
	var mu sync.Mutex
	var wire strings.Builder
	for _, c := range []struct{ vo, goal, initiator, provider, role2 string }{
		{"AircraftOptimizationVO", "wing optimization", "AircraftCo", "AerospaceCo", "Storage"},
		{`Wing & "Tail" <VO>`, "", "Aircraft'Co", "Aero Space&Co/+=?", "Storage & <Archive>"},
	} {
		ca := pki.MustNewAuthority("CertCA")
		contract := &vo.Contract{
			VOName:    c.vo,
			Goal:      c.goal,
			Initiator: c.initiator,
			Roles: []vo.RoleSpec{
				{Name: "DesignWebPortal", Capabilities: []string{"design-db"}, MinMembers: 1,
					AdmissionPolicies: xtnl.MustParsePolicies("M <- WebDesignerQuality(regulation='UNI EN ISO 9000')")},
				{Name: c.role2, AdmissionPolicies: xtnl.MustParsePolicies("M <- DELIV")},
			},
		}
		party := &negotiation.Party{Name: c.initiator, Profile: xtnl.NewProfile(c.initiator),
			Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(ca)}
		ini, err := core.NewInitiator(contract, party, registry.New())
		if err != nil {
			t.Fatal(err)
		}
		if err := ini.VO.StartFormation(); err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		NewToolkitService(ini).Register(mux)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, r)
			if r.URL.Path == "/vo/apply" || r.URL.Path == "/vo/mailbox" {
				mu.Lock()
				fmt.Fprintf(&wire, "%s %s\n%d %s\n", r.Method, r.URL.RequestURI(), rec.Code, rec.Body)
				mu.Unlock()
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		}))
		defer srv.Close()
		member := &MemberClient{BaseURL: srv.URL, Party: &negotiation.Party{Name: c.provider}}
		if err := member.Publish(bg, &registry.Description{Provider: c.provider, Service: "Portal", Capabilities: []string{"design-db"}}); err != nil {
			t.Fatal(err)
		}
		var issued []*core.Invitation
		for _, role := range []string{"DesignWebPortal", c.role2} {
			inv, resource, err := member.Apply(bg, role)
			if err != nil {
				t.Fatal(err)
			}
			want := &core.Invitation{VO: c.vo, Role: role, Goal: c.goal, From: c.initiator,
				Text: fmt.Sprintf("You are invited to join %s as %s.", c.vo, role)}
			if !reflect.DeepEqual(inv, want) || resource != vo.MembershipResource(c.vo, role) {
				t.Errorf("Apply(%q) = %+v, %q; want %+v, %q", role, inv, resource, want, vo.MembershipResource(c.vo, role))
			}
			issued = append(issued, want)
		}
		box, err := member.Mailbox(bg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(box, issued) {
			t.Errorf("Mailbox = %+v, want %+v", box, issued)
		}
	}
	path := filepath.Join("testdata", "invitations.golden")
	if *updateInvitations {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(wire.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := wire.String(); got != string(golden) {
		t.Errorf("apply and mailbox wire:\n%s\nwant, from %s:\n%s", got, path, golden)
	}
}

// TestMailboxHoldsOneInvitationPerRole applies 1,000 times for one role
// between two applications for another: the mailbox keeps one pending
// invitation per role, in the order each role was first applied for.
func TestMailboxHoldsOneInvitationPerRole(t *testing.T) {
	f := newWSFixture(t)
	f.publishMember(t)
	roles := []string{"Storage"}
	for range 1000 {
		roles = append(roles, "DesignWebPortal")
	}
	for _, role := range append(roles, "Storage") {
		if _, _, err := f.member.Apply(bg, role); err != nil {
			t.Fatal(err)
		}
	}
	box, err := f.member.Mailbox(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(box) != 2 {
		t.Fatalf("mailbox holds %d invitations, want 2", len(box))
	}
	if box[0].Role != "Storage" || box[1].Role != "DesignWebPortal" {
		t.Errorf("mailbox roles %q, %q; want Storage, DesignWebPortal", box[0].Role, box[1].Role)
	}
}
