package negotiation

import (
	"strings"
	"testing"

	"trustvo/internal/pki"
	"trustvo/internal/telemetry"
	"trustvo/internal/xtnl"
)

// instrumentedPair builds a requester holding an EmployeeBadge and a
// controller protecting Report behind it, both wired to the same metrics
// registry; the requester also records its span trace.
func instrumentedPair(t *testing.T) (req, ctl *Party, reg *telemetry.Registry, traces *[]*telemetry.Trace) {
	t.Helper()
	ca := pki.MustNewAuthority("CA")
	reg = telemetry.NewRegistry()
	var got []*telemetry.Trace
	req = &Party{
		Name:     "alice",
		Profile:  xtnl.NewProfile("alice"),
		Policies: xtnl.MustPolicySet(),
		Trust:    pki.NewTrustStore(ca),
		Metrics:  reg,
		Recorder: func(tr *telemetry.Trace) { got = append(got, tr) },
	}
	req.Profile.Add(ca.MustIssue(pki.IssueRequest{Type: "EmployeeBadge", Holder: "alice"}))
	ctl = &Party{
		Name:     "bob",
		Profile:  xtnl.NewProfile("bob"),
		Policies: xtnl.MustPolicySet(xtnl.MustParsePolicies("Report <- EmployeeBadge")...),
		Trust:    pki.NewTrustStore(ca),
		Metrics:  reg,
	}
	return req, ctl, reg, &got
}

func TestNegotiationMetrics(t *testing.T) {
	req, ctl, reg, _ := instrumentedPair(t)
	out, _, err := Run(req, ctl, "Report")
	if err != nil || !out.Succeeded {
		t.Fatalf("run: %v %+v", err, out)
	}
	if got := reg.Counter("tn_negotiations_total", "role", "requester", "result", "success").Value(); got != 1 {
		t.Fatalf("requester successes = %d", got)
	}
	if got := reg.Counter("tn_negotiations_total", "role", "controller", "result", "success").Value(); got != 1 {
		t.Fatalf("controller successes = %d", got)
	}
	if got := reg.Counter("tn_disclosures_sent_total", "role", "requester").Value(); got != 1 {
		t.Fatalf("disclosures sent = %d", got)
	}
	if got := reg.Counter("tn_disclosures_received_total", "role", "controller").Value(); got != 1 {
		t.Fatalf("disclosures received = %d", got)
	}
	if got := reg.Counter("tn_verification_failures_total", "role", "controller").Value(); got != 0 {
		t.Fatalf("verification failures = %d", got)
	}
	// both phases observed for both roles, and a whole-negotiation latency
	for _, role := range []string{"requester", "controller"} {
		for _, ph := range []string{phaseNameEval, phaseNameExchange} {
			h := reg.LatencyHistogram("tn_phase_seconds", "phase", ph, "role", role)
			if s := h.Snapshot(); s.Count != 1 {
				t.Fatalf("phase %s/%s observations = %d", ph, role, s.Count)
			}
		}
		if s := reg.LatencyHistogram("tn_negotiation_seconds", "role", role).Snapshot(); s.Count != 1 {
			t.Fatalf("negotiation latency %s observations = %d", role, s.Count)
		}
		if s := reg.Histogram("tn_rounds", telemetry.CountBuckets, "role", role).Snapshot(); s.Count != 1 {
			t.Fatalf("rounds %s observations = %d", role, s.Count)
		}
		if s := reg.Histogram("tn_tree_nodes", telemetry.CountBuckets, "role", role).Snapshot(); s.Count != 1 || s.Sum < 2 {
			t.Fatalf("tree nodes %s: %+v", role, s)
		}
	}
}

func TestNegotiationTrace(t *testing.T) {
	req, ctl, _, traces := instrumentedPair(t)
	out, _, err := Run(req, ctl, "Report")
	if err != nil || !out.Succeeded {
		t.Fatalf("run: %v %+v", err, out)
	}
	if len(*traces) != 1 {
		t.Fatalf("recorded %d traces", len(*traces))
	}
	tr := (*traces)[0]
	spans := tr.Spans()
	if len(spans) < 4 {
		t.Fatalf("spans = %d: %s", len(spans), tr.String())
	}
	root := spans[0]
	if root.Name != "negotiation" || root.ParentID != 0 || root.Finish.IsZero() {
		t.Fatalf("root span: %+v", root)
	}
	var sawEval, sawExchange, sawMsg bool
	for _, s := range spans[1:] {
		switch {
		case s.Name == "phase:"+phaseNameEval:
			sawEval = true
			if s.ParentID != root.ID {
				t.Fatalf("eval phase parent = %d", s.ParentID)
			}
		case s.Name == "phase:"+phaseNameExchange:
			sawExchange = true
			if s.ParentID != root.ID {
				t.Fatalf("exchange phase parent = %d", s.ParentID)
			}
		case strings.HasPrefix(s.Name, "recv:"):
			sawMsg = true
			if s.ParentID == 0 || s.ParentID == root.ID {
				t.Fatalf("message span %s parented to %d", s.Name, s.ParentID)
			}
		}
		if s.Finish.IsZero() {
			t.Fatalf("span %s left open:\n%s", s.Name, tr.String())
		}
	}
	if !sawEval || !sawExchange || !sawMsg {
		t.Fatalf("missing spans (eval=%v exchange=%v msg=%v):\n%s", sawEval, sawExchange, sawMsg, tr.String())
	}
	// the rendered trace carries the outcome annotations
	rendered := tr.String()
	if !strings.Contains(rendered, "result=success") || !strings.Contains(rendered, "resource=Report") {
		t.Fatalf("rendered trace:\n%s", rendered)
	}
	// the accessor exposes the same trace from the endpoint side
	reqEp := NewRequester(req, "Report")
	if reqEp.Trace() != nil {
		t.Fatal("trace non-nil before start")
	}
	msg, err := reqEp.Start()
	if err != nil {
		t.Fatal(err)
	}
	if reqEp.Trace() == nil {
		t.Fatal("trace nil after start with Recorder set")
	}
	_ = msg
}

func TestVerificationFailureCounted(t *testing.T) {
	req, ctl, reg, _ := instrumentedPair(t)
	// the requester's badge comes from a CA the controller does not trust
	rogue := pki.MustNewAuthority("Rogue")
	req.Profile = xtnl.NewProfile("alice")
	req.Profile.Add(rogue.MustIssue(pki.IssueRequest{Type: "EmployeeBadge", Holder: "alice"}))
	out, _, err := Run(req, ctl, "Report")
	if err != nil {
		t.Fatal(err)
	}
	if out.Succeeded {
		t.Fatal("untrusted credential accepted")
	}
	if got := reg.Counter("tn_verification_failures_total", "role", "controller").Value(); got != 1 {
		t.Fatalf("verification failures = %d", got)
	}
	if got := reg.Counter("tn_negotiations_total", "role", "controller", "result", "failure").Value(); got != 1 {
		t.Fatalf("controller failures = %d", got)
	}
}

func TestUninstrumentedPartyStillNegotiates(t *testing.T) {
	req, ctl, _, _ := instrumentedPair(t)
	req.Metrics, req.Recorder, ctl.Metrics = nil, nil, nil
	out, _, err := Run(req, ctl, "Report")
	if err != nil || !out.Succeeded {
		t.Fatalf("run: %v %+v", err, out)
	}
	ep := NewRequester(req, "Report")
	if _, err := ep.Start(); err != nil {
		t.Fatal(err)
	}
	if ep.Trace() != nil {
		t.Fatal("trace allocated without Recorder")
	}
}

// TestHandleSpanNameAllocations: naming the span of a handled message
// costs nothing, traced or not. A fresh requester that receives a fail,
// its only message, allocates 4 times (the endpoint, its state and the
// outcome); a span name built per message made it 5.
func TestHandleSpanNameAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	party := &Party{Name: "alice", Profile: xtnl.NewProfile("alice"), Policies: xtnl.MustPolicySet()}
	fail := &Message{Type: MsgFail, From: "bob", Reason: "no"}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := NewRequester(party, "R").Handle(fail); err != nil {
			t.Fatal(err)
		}
	})
	ep := NewRequester(party, "R")
	ep.Handle(fail)
	if out := ep.Outcome(); out == nil || out.Succeeded || out.Reason != "no" {
		t.Fatalf("outcome %+v", out)
	}
	if allocs > 4 {
		t.Errorf("a requester handling one fail allocates %.1f times, want at most 4", allocs)
	}
	for typ := MsgRequest; typ <= MsgFail; typ++ {
		if got, want := recvSpanName(typ), "recv:"+typ.String(); got != want {
			t.Errorf("span name of %s = %q, want %q", typ, got, want)
		}
	}
}
