package wsrpc

import (
	"bytes"
	"encoding/base64"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"trustvo/internal/core"
	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/vo"
	"trustvo/internal/vo/registry"
	"trustvo/internal/xtnl"
)

var updateJoined = flag.Bool("update-joined", false, "rewrite testdata/joined.golden from this tree")

// tokenText matches the base64 DER of a <joined> reply's token, which
// differs on every run (a fresh subject key, the time it was minted).
var tokenText = regexp.MustCompile(`<token>[^<]*</token>`)

// TestJoinDirectWireGolden pins what /vo/join-direct carries, each
// request's method and URI and each reply's status and body, to
// testdata/joined.golden byte for byte, with the token's base64 masked.
// It joins under two contracts, the second with names that need escaping
// in the query and in XML, and once for a provider that has not
// published. The token the member client decodes must be the one the
// VO issued, spelled in the reply as its base64. Run with
// -update-joined to record the file from this tree.
func TestJoinDirectWireGolden(t *testing.T) {
	var mu sync.Mutex
	var wire strings.Builder
	for _, c := range []struct{ vo, initiator, provider, role string }{
		{"AircraftOptimizationVO", "AircraftCo", "AerospaceCo", "DesignWebPortal"},
		{`Wing & "Tail" <VO>`, "Aircraft'Co", "Aero Space&Co/+=?", "Storage & <Archive>"},
	} {
		ca := pki.MustNewAuthority("CertCA")
		contract := &vo.Contract{
			VOName:    c.vo,
			Initiator: c.initiator,
			Roles: []vo.RoleSpec{{Name: c.role, Capabilities: []string{"design-db"}, MinMembers: 1,
				AdmissionPolicies: xtnl.MustParsePolicies("M <- DELIV")}},
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
			if r.URL.Path == "/vo/join-direct" {
				mu.Lock()
				fmt.Fprintf(&wire, "%s %s\n%d %s\n", r.Method, r.URL.RequestURI(), rec.Code,
					tokenText.ReplaceAllString(rec.Body.String(), "<token>…</token>"))
				mu.Unlock()
				if m := ini.VO.Member(c.provider); m != nil && rec.Code == http.StatusOK {
					want := "<token>" + base64.StdEncoding.EncodeToString(m.Token.DER) + "</token>"
					if !strings.Contains(rec.Body.String(), want) {
						t.Errorf("reply %s does not carry the issued token %s", rec.Body, want)
					}
				}
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		}))
		defer srv.Close()

		stranger := &MemberClient{BaseURL: srv.URL, Party: &negotiation.Party{Name: "Unpublished " + c.provider}}
		if der, err := stranger.JoinDirect(bg, c.role); err == nil {
			t.Errorf("an unpublished provider joined: %x", der)
		}
		member := &MemberClient{BaseURL: srv.URL, Party: &negotiation.Party{Name: c.provider}}
		if err := member.Publish(bg, &registry.Description{Provider: c.provider, Service: "Portal", Capabilities: []string{"design-db"}}); err != nil {
			t.Fatal(err)
		}
		der, err := member.JoinDirect(bg, c.role)
		if err != nil {
			t.Fatal(err)
		}
		m := ini.VO.Member(c.provider)
		if m == nil || m.Role != c.role || !bytes.Equal(der, m.Token.DER) {
			t.Fatalf("JoinDirect returned %x; the VO holds %+v", der, m)
		}
		if _, err := ini.VO.VerifyMembership(der); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "joined.golden")
	if *updateJoined {
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
		t.Errorf("join-direct wire:\n%s\nwant, from %s:\n%s", got, path, golden)
	}
}

// TestMemberClientNumbersFailClosed answers /vo/status and
// /vo/reputation from a stub with a member count or a score that is
// missing or malformed: each call must fail, where a well-formed one
// reads as sent.
func TestMemberClientNumbersFailClosed(t *testing.T) {
	var reply string
	var body atomic.Value // reply, as the handler's goroutine reads it
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		SetContentType(w.Header())
		fmt.Fprint(w, body.Load())
	}))
	defer srv.Close()
	c := &MemberClient{BaseURL: srv.URL, Party: &negotiation.Party{Name: "m"}}

	for _, members := range []string{"", `members=""`, `members="12abc"`, `members="x"`, `members="-1"`, `members="1.5"`} {
		reply = `<voStatus name="VO" phase="formation" ` + members + `/>`
		body.Store(reply)
		if phase, n, err := c.VOStatus(bg); err == nil {
			t.Errorf("VOStatus of %s = %q, %d, nil", reply, phase, n)
		}
	}
	reply = `<voStatus members="12" name="VO" phase="formation"/>`
	body.Store(reply)
	if phase, n, err := c.VOStatus(bg); err != nil || phase != "formation" || n != 12 {
		t.Errorf("VOStatus of %s = %q, %d, %v", reply, phase, n, err)
	}

	for _, score := range []string{"", `score=""`, `score="0.5x"`, `score="high"`} {
		reply = `<reputation member="m" ` + score + `/>`
		body.Store(reply)
		if f, err := c.Reputation(bg, "m"); err == nil {
			t.Errorf("Reputation of %s = %v, nil", reply, f)
		}
	}
	reply = `<reputation member="m" score="0.7500"/>`
	body.Store(reply)
	if f, err := c.Reputation(bg, "m"); err != nil || f != 0.75 {
		t.Errorf("Reputation of %s = %v, %v", reply, f, err)
	}
}
