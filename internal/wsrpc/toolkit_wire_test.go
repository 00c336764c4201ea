package wsrpc

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"trustvo/internal/core"
	"trustvo/internal/negotiation"
	"trustvo/internal/pki"
	"trustvo/internal/vo"
	"trustvo/internal/vo/registry"
	"trustvo/internal/xtnl"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/toolkit.golden from this tree")

// TestToolkitWireGolden pins what the toolkit's registry, status,
// lifecycle, operation and monitoring routes carry, each request's
// method, URI and body and each reply's status and body, to
// testdata/toolkit.golden byte for byte. The member client drives every
// route it has; /registry/list and /registry/find, which it lacks, are
// fetched through the Transport. It runs under two contracts, the second
// with names that need escaping in the query and in XML, with the VO's
// clock and the toolkit's fixed. What the member client decodes must be
// what the VO holds. Run with -update-wire to record the file from this
// tree.
func TestToolkitWireGolden(t *testing.T) {
	at := time.Date(2030, 1, 2, 3, 4, 5, 0, time.UTC)
	defer func(old func() time.Time) { timeNow = old }(timeNow)
	timeNow = func() time.Time { return at.Add(36 * time.Hour) }
	var mu sync.Mutex
	var wire strings.Builder
	for _, c := range []struct{ vo, initiator, provider, role, op, service, capability string }{
		{"AircraftOptimizationVO", "AircraftCo", "AerospaceCo", "DesignWebPortal", "readDesigns", "Portal", "design-db"},
		{`Wing & "Tail" <VO>`, "Aircraft'Co", "Aero Space&Co/+=?", "Storage & <Archive>", `read <designs> & "specs"`, `Portal "X" & <Y>`, "design db&co=1"},
	} {
		ca := pki.MustNewAuthority("CertCA")
		contract := &vo.Contract{
			VOName:    c.vo,
			Goal:      "wing optimization",
			Initiator: c.initiator,
			Roles: []vo.RoleSpec{{Name: c.role, Capabilities: []string{c.capability}, MinMembers: 1,
				AdmissionPolicies: xtnl.MustParsePolicies("M <- DELIV")}},
			Rules: []vo.Rule{{Operation: c.op, Callers: []string{c.role}, Target: c.role}},
		}
		party := &negotiation.Party{Name: c.initiator, Profile: xtnl.NewProfile(c.initiator),
			Policies: xtnl.MustPolicySet(), Trust: pki.NewTrustStore(ca)}
		ini, err := core.NewInitiator(contract, party, registry.New())
		if err != nil {
			t.Fatal(err)
		}
		ini.VO.SetClock(func() time.Time { return at })
		mux := http.NewServeMux()
		NewToolkitService(ini).Register(mux)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, r)
			mu.Lock()
			fmt.Fprintf(&wire, "%s %s\n", r.Method, r.URL.RequestURI())
			if len(body) > 0 {
				fmt.Fprintf(&wire, "%s\n", body)
			}
			fmt.Fprintf(&wire, "%d %s\n", rec.Code, rec.Body)
			mu.Unlock()
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		}))
		defer srv.Close()
		member := &MemberClient{BaseURL: srv.URL, Party: &negotiation.Party{Name: c.provider}}
		stranger := &MemberClient{BaseURL: srv.URL, Party: &negotiation.Party{Name: c.provider + " 2"}}
		get := func(route, query string) {
			t.Helper()
			if _, err := member.transport().CallBody(bg, http.MethodGet, srv.URL, route, query, "", true, nil); err != nil {
				t.Errorf("GET %s%s: %v", route, query, err)
			}
		}
		status := func(wantPhase string, wantMembers int) {
			t.Helper()
			phase, n, err := member.VOStatus(bg)
			if err != nil || phase != wantPhase || n != wantMembers {
				t.Errorf("VOStatus = %q, %d, %v; want %q, %d", phase, n, err, wantPhase, wantMembers)
			}
		}
		mustFail := func(what string, err error) {
			t.Helper()
			if err == nil {
				t.Errorf("%s succeeded", what)
			}
		}

		// Formation: the registry, and a VO with no members yet.
		get("/registry/list", "")
		full := &registry.Description{
			Provider: c.provider, Service: c.service, Capabilities: []string{c.capability, "viz & <3d>"},
			Endpoint: "http://aero.example/tn?a=1&b=" + url.QueryEscape(c.vo), Quality: `UNI EN ISO 9000 "A" & <B>`,
		}
		if err := member.Publish(bg, full); err != nil {
			t.Fatal(err)
		}
		if err := stranger.Publish(bg, &registry.Description{Provider: stranger.Party.Name, Service: "S"}); err != nil {
			t.Fatal(err)
		}
		mustFail("publishing without a service", member.Publish(bg, &registry.Description{Provider: c.provider}))
		if got := ini.Registry.Lookup(c.provider); !reflect.DeepEqual(got, full) {
			t.Errorf("published %+v, want %+v", got, full)
		}
		get("/registry/list", "")
		get("/registry/find", "?capability="+url.QueryEscape(c.capability))
		get("/registry/find", "?capability="+url.QueryEscape(strings.ToUpper(c.capability))+"&capability="+url.QueryEscape("VIZ & <3D>"))
		get("/registry/find", "?capability=nope")
		if _, err := member.Members(bg); err != nil {
			t.Fatal(err)
		}
		status("identification", 0)
		if err := member.Phase(bg, "formation"); err != nil {
			t.Fatal(err)
		}
		mustFail("a second formation", member.Phase(bg, "formation"))
		mustFail("operation with the role uncovered", member.Phase(bg, "operation"))
		if _, err := ini.VO.Admit(c.provider, c.role); err != nil {
			t.Fatal(err)
		}
		status("formation", 1)
		members, err := member.Members(bg)
		if err != nil || !reflect.DeepEqual(members, map[string]string{c.provider: c.role}) {
			t.Errorf("Members = %v, %v", members, err)
		}
		audit, err := member.Audit(bg)
		if err != nil || len(audit) != 0 {
			t.Errorf("Audit before any operation = %+v, %v", audit, err)
		}

		// Operation: authorized and refused operations, violations, and
		// what the monitoring routes then report.
		if err := member.Phase(bg, "operation"); err != nil {
			t.Fatal(err)
		}
		if err := member.Operate(bg, c.op); err != nil {
			t.Fatal(err)
		}
		mustFail("an operation outside the contract", member.Operate(bg, c.op+"?&x=1"))
		mustFail("an operation by a non-member", stranger.Operate(bg, c.op))
		if err := member.ReportViolation(bg, c.provider, c.op, `late & "slow" <x>`, 1.5); err != nil {
			t.Fatal(err)
		}
		if err := member.ReportViolation(bg, c.provider, "", "", 1e-7); err != nil {
			t.Fatal(err)
		}
		mustFail("a violation by a non-member", member.ReportViolation(bg, stranger.Party.Name, c.op, "x", 2))
		status("operation", 1)
		audit, err = member.Audit(bg)
		if err != nil {
			t.Fatal(err)
		}
		var want []AuditEntry
		for _, e := range ini.VO.Audit() {
			want = append(want, AuditEntry{Member: e.Member, Operation: e.Operation, Allowed: e.Allowed, Detail: e.Detail, At: e.At.UTC()})
		}
		if !reflect.DeepEqual(audit, want) {
			t.Errorf("Audit = %+v, want %+v", audit, want)
		}
		for _, name := range []string{c.provider, stranger.Party.Name} {
			score, err := member.Reputation(bg, name)
			wantScore := ini.VO.Reputation.Score(name, timeNow())
			if err != nil || math.Abs(score-wantScore) > 5e-5 {
				t.Errorf("Reputation(%q) = %v, %v; want %v", name, score, err, wantScore)
			}
			if s := strconv.FormatFloat(score, 'f', 4, 64); s == "0.5000" && name == c.provider {
				t.Errorf("Reputation(%q) = %s, the neutral prior", name, s)
			}
		}
		if err := member.Phase(bg, "dissolution"); err != nil {
			t.Fatal(err)
		}
		mustFail("operation after dissolution", member.Phase(bg, "operation"))
		status("dissolution", 0)
	}
	path := filepath.Join("testdata", "toolkit.golden")
	if *updateWire {
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
		t.Errorf("toolkit wire:\n%s\nwant, from %s:\n%s", got, path, golden)
	}
}
