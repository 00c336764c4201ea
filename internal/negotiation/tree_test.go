package negotiation

import (
	"strings"
	"testing"

	"trustvo/internal/xtnl"
)

// TestFig2WorkedExample reproduces the paper's Fig. 2 negotiation tree:
// the Aerospace company requests a VO Membership certificate from the
// Aircraft company. The Aircraft company's policy is
// VoMembership <- WebDesignerQuality; the Aerospace company protects its
// WebDesignerQuality credential with two alternatives —
// Certification <- AAACreditation OR Certification <- BalanceSheet —
// yielding one simple edge and a pair of alternative edges.
func TestFig2WorkedExample(t *testing.T) {
	tr := NewTree("VoMembership", "AircraftCo")

	// Aircraft company's policy expands the root with one term owned by
	// the Aerospace company.
	kids, err := tr.Expand(RootID, [][]xtnl.Term{{{CredType: "WebDesignerQuality"}}}, "AerospaceCo")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 1 {
		t.Fatalf("root expansion created %d children", len(kids))
	}
	wdq := kids[0]
	if wdq.Owner != "AerospaceCo" || tr.Root().Multiedge(0) {
		t.Fatalf("unexpected child: %+v", wdq)
	}

	// The Aerospace company's alternatives for its quality credential:
	// prove AAA accreditation OR disclose a balance sheet — two edges
	// from the same node (the tree's alternative branches).
	alts := [][]xtnl.Term{
		{{CredType: "AAACreditation"}},
		{{CredType: "BalanceSheet"}},
	}
	kids, err = tr.Expand(wdq.ID, alts, "AircraftCo")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 {
		t.Fatalf("alternatives created %d children", len(kids))
	}

	// The Aircraft company can freely show the AAA accreditation; the
	// balance sheet branch is denied.
	tr.Comply(kids[0].ID)
	tr.Deny(kids[1].ID)

	if !tr.Satisfiable(RootID) {
		t.Fatal("tree should be satisfiable through the AAA branch")
	}
	seq := tr.Sequence()
	if len(seq) != 2 {
		t.Fatalf("sequence = %d entries, want 2 (AAACreditation then WebDesignerQuality)", len(seq))
	}
	// child-before-parent ordering
	if seq[0].Term.CredType != "AAACreditation" || seq[0].Owner != "AircraftCo" {
		t.Fatalf("seq[0] = %+v", seq[0])
	}
	if seq[1].Term.CredType != "WebDesignerQuality" || seq[1].Owner != "AerospaceCo" {
		t.Fatalf("seq[1] = %+v", seq[1])
	}

	// the rendering mentions both alternatives
	s := tr.String()
	for _, frag := range []string{"VoMembership", "WebDesignerQuality", "AAACreditation", "BalanceSheet", "alt 0", "alt 1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("tree rendering missing %q:\n%s", frag, s)
		}
	}
}

func TestMultiedgeTreatedAsWhole(t *testing.T) {
	tr := NewTree("R", "B")
	// one policy with two terms on its left side = multiedge
	kids, err := tr.Expand(RootID, [][]xtnl.Term{{{CredType: "X"}, {CredType: "Y"}}}, "A")
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root().Multiedge(0) {
		t.Fatal("two-term alternative should be a multiedge")
	}
	tr.Comply(kids[0].ID)
	if tr.Satisfiable(RootID) {
		t.Fatal("multiedge with one unanswered node must not be satisfiable")
	}
	tr.Deny(kids[1].ID)
	if tr.Satisfiable(RootID) {
		t.Fatal("multiedge with a denied node must fail as a whole")
	}
	if !tr.Dead(RootID) {
		t.Fatal("root should be dead: only alternative has a dead child")
	}
}

func TestSequenceDeduplicatesRepeatedTerms(t *testing.T) {
	tr := NewTree("R", "B")
	kids, _ := tr.Expand(RootID, [][]xtnl.Term{{{CredType: "X"}, {CredType: "Y"}}}, "A")
	// both X and Y are protected by the same requirement Z of B
	z1, _ := tr.Expand(kids[0].ID, [][]xtnl.Term{{{CredType: "Z"}}}, "B")
	z2, _ := tr.Expand(kids[1].ID, [][]xtnl.Term{{{CredType: "Z"}}}, "B")
	tr.Comply(z1[0].ID)
	tr.Comply(z2[0].ID)
	seq := tr.Sequence()
	count := 0
	for _, s := range seq {
		if s.Term.CredType == "Z" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("Z disclosed %d times in sequence, want 1: %+v", count, seq)
	}
	if len(seq) != 3 { // Z, X, Y
		t.Fatalf("sequence = %+v", seq)
	}
}

func TestCycleDetection(t *testing.T) {
	tr := NewTree("R", "B")
	kids, _ := tr.Expand(RootID, [][]xtnl.Term{{{CredType: "X"}}}, "A")
	x := kids[0]
	kids, _ = tr.Expand(x.ID, [][]xtnl.Term{{{CredType: "Y"}}}, "B")
	y := kids[0]
	// Y's policy re-requests X from A: cycle
	kids, _ = tr.Expand(y.ID, [][]xtnl.Term{{{CredType: "X"}}}, "A")
	x2 := kids[0]
	if !tr.HasAncestorTerm(x2.ID, "A", x2.Term) {
		t.Fatal("cycle not detected")
	}
	// same type but different conditions is NOT a cycle
	other := xtnl.Term{CredType: "X", Conditions: []string{"/credential/content/a='1'"}}
	if tr.HasAncestorTerm(x2.ID, "A", other) {
		t.Fatal("different conditions misdetected as cycle")
	}
	// different owner is not a cycle either
	if tr.HasAncestorTerm(x2.ID, "B", x2.Term) {
		t.Fatal("different owner misdetected as cycle")
	}
}

func TestExpandErrors(t *testing.T) {
	tr := NewTree("R", "B")
	if _, err := tr.Expand("nope", [][]xtnl.Term{{{CredType: "X"}}}, "A"); err == nil {
		t.Fatal("expand of unknown node accepted")
	}
	if _, err := tr.Expand(RootID, nil, "A"); err == nil {
		t.Fatal("expand with no alternatives accepted")
	}
	if _, err := tr.Expand(RootID, [][]xtnl.Term{{}}, "A"); err == nil {
		t.Fatal("empty alternative accepted")
	}
	tr.Expand(RootID, [][]xtnl.Term{{{CredType: "X"}}}, "A")
	if _, err := tr.Expand(RootID, [][]xtnl.Term{{{CredType: "Y"}}}, "A"); err == nil {
		t.Fatal("double expansion accepted")
	}
	if err := tr.Deny("nope"); err == nil {
		t.Fatal("deny of unknown node accepted")
	}
	if err := tr.Comply("nope"); err == nil {
		t.Fatal("comply of unknown node accepted")
	}
}

func TestCompleteAndOpenNodes(t *testing.T) {
	tr := NewTree("R", "B")
	if tr.Complete() {
		t.Fatal("fresh tree has an open root")
	}
	if got := tr.OpenNodes("B"); len(got) != 1 || got[0] != RootID {
		t.Fatalf("open nodes = %v", got)
	}
	kids, _ := tr.Expand(RootID, [][]xtnl.Term{{{CredType: "X"}}}, "A")
	if got := tr.OpenNodes("A"); len(got) != 1 || got[0] != kids[0].ID {
		t.Fatalf("open nodes for A = %v", got)
	}
	tr.Comply(kids[0].ID)
	if !tr.Complete() {
		t.Fatal("tree should be complete")
	}
}

func TestDeadPropagation(t *testing.T) {
	tr := NewTree("R", "B")
	kids, _ := tr.Expand(RootID, [][]xtnl.Term{
		{{CredType: "X"}},
		{{CredType: "Y"}},
	}, "A")
	tr.Deny(kids[0].ID)
	if tr.Dead(RootID) {
		t.Fatal("root not dead: alternative Y still open")
	}
	tr.Deny(kids[1].ID)
	if !tr.Dead(RootID) {
		t.Fatal("root should be dead after all alternatives denied")
	}
	if tr.Dead("unknown") != true {
		t.Fatal("unknown node should be dead")
	}
}

func TestSequenceNilWhenUnsatisfiable(t *testing.T) {
	tr := NewTree("R", "B")
	if tr.Sequence() != nil {
		t.Fatal("sequence of open tree should be nil")
	}
	tr.Deny(RootID)
	if tr.Sequence() != nil {
		t.Fatal("sequence of denied tree should be nil")
	}
}

// TestHasAncestorTermAllocations guards the mutual-requirement check
// every expansion makes: it compares owners, types and conditions in
// place, building no key. Conditions match in any order; the guard runs
// on a single-condition term, the form every policy in the benchmark
// uses.
func TestHasAncestorTermAllocations(t *testing.T) {
	tr := NewTree("R", "B")
	x := xtnl.Term{CredType: "X", Conditions: []string{"/credential/content/b='2'", "/credential/content/a='1'"}}
	kids, _ := tr.Expand(RootID, [][]xtnl.Term{{x}}, "A")
	kids, _ = tr.Expand(kids[0].ID, [][]xtnl.Term{{{CredType: "Y", Conditions: []string{"/credential/content/c='3'"}}}}, "B")
	reordered := xtnl.Term{CredType: "X", Conditions: []string{x.Conditions[1], x.Conditions[0]}}
	kids, _ = tr.Expand(kids[0].ID, [][]xtnl.Term{{reordered}}, "A")
	if !tr.HasAncestorTerm(kids[0].ID, "A", reordered) {
		t.Fatal("reordered conditions not detected as the same requirement")
	}
	if tr.HasAncestorTerm(kids[0].ID, "A", xtnl.Term{CredType: "X", Conditions: x.Conditions[:1]}) {
		t.Fatal("a term with fewer conditions detected as the same requirement")
	}

	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	q := xtnl.Term{CredType: "WebDesignerQuality", Conditions: []string{"/credential/content/regulation='UNI EN ISO 9000'"}}
	tr = NewTree("R", "B")
	kids, _ = tr.Expand(RootID, [][]xtnl.Term{{q}}, "A")
	kids, _ = tr.Expand(kids[0].ID, [][]xtnl.Term{{{CredType: "AAAMember"}}}, "B")
	kids, _ = tr.Expand(kids[0].ID, [][]xtnl.Term{{q}}, "A")
	if !tr.HasAncestorTerm(kids[0].ID, "A", q) {
		t.Fatal("repeated requirement not detected")
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = tr.HasAncestorTerm(kids[0].ID, "A", q) }); allocs != 0 {
		t.Errorf("HasAncestorTerm allocates %.1f times, want 0", allocs)
	}
}
