package analysis_test

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"trustvo/internal/analysis"
)

// One loader (and thus one stdlib source-import pass) serves every
// golden package in this test binary.
var (
	loaderOnce sync.Once
	goldLoader *analysis.Loader
	loaderErr  error
)

func testLoader(t *testing.T) *analysis.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		abs, err := filepath.Abs(filepath.Join("testdata", "src"))
		if err != nil {
			loaderErr = err
			return
		}
		goldLoader = analysis.NewLoader()
		goldLoader.AddRoot("", abs)
	})
	if loaderErr != nil {
		t.Fatalf("testdata root: %v", loaderErr)
	}
	return goldLoader
}

// only returns a fresh suite narrowed to one analyzer; fresh because
// metricname carries module-wide state between runs.
func only(t *testing.T, name string) []*analysis.Analyzer {
	t.Helper()
	suite, err := analysis.Select(analysis.Suite(), []string{name}, nil)
	if err != nil {
		t.Fatalf("select %s: %v", name, err)
	}
	if len(suite) != 1 {
		t.Fatalf("select %s: got %d analyzers", name, len(suite))
	}
	return suite
}

func TestGolden(t *testing.T) {
	cases := []struct {
		analyzer string
		paths    []string
	}{
		{"ctxpropagate", []string{"ctxpropagate/wsrpc"}},
		{"ctxpropagate", []string{"ctxpropagate/mainpkg"}},
		{"ctxpropagate", []string{"ctxpropagate/cluster"}},
		{"errwrap", []string{"errwrap/a"}},
		{"metricname", []string{"metricname/a"}},
		{"xmlimport", []string{"xmlimport/a"}},
		{"xmlimport", []string{"xmlimport/wsrpc"}},
		{"xmlimport", []string{"xmlimport/cluster"}},
		{"nakedlock", []string{"nakedlock/a"}},
		{"nakedlock", []string{"nakedlock/clustershape"}},
		{"syncerr", []string{"syncerr/a"}},
		{"lockorder", []string{"lockorder/a", "lockorder/b"}},
		{"goroleak", []string{"goroleak/a"}},
		{"credtaint", []string{"credtaint/a", "credtaint/pki"}},
		{"atomicmix", []string{"atomicmix/a"}},
	}
	for _, c := range cases {
		t.Run(c.paths[0], func(t *testing.T) {
			analysis.RunGoldenPkgs(t, testLoader(t), c.paths, only(t, c.analyzer)...)
		})
	}
}

func TestSelect(t *testing.T) {
	if _, err := analysis.Select(analysis.Suite(), []string{"nosuch"}, nil); err == nil {
		t.Fatal("Select accepted an unknown -only analyzer")
	}
	if _, err := analysis.Select(analysis.Suite(), nil, []string{"nosuch"}); err == nil {
		t.Fatal("Select accepted an unknown -skip analyzer")
	}
	rest, err := analysis.Select(analysis.Suite(), nil, []string{"nakedlock", "errwrap"})
	if err != nil {
		t.Fatalf("skip: %v", err)
	}
	if len(rest) != len(analysis.Suite())-2 {
		t.Fatalf("skip left %d analyzers", len(rest))
	}
	for _, a := range rest {
		if a.Name == "nakedlock" || a.Name == "errwrap" {
			t.Fatalf("skipped analyzer %s still present", a.Name)
		}
	}
}

// TestFindingJSONRoundTrip runs the full suite over a fixture with
// known findings and checks they survive a JSON encode/decode cycle —
// the contract cmd/vetvo -json exposes to CI tooling.
func TestFindingJSONRoundTrip(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.Load("nakedlock/a")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	findings, err := analysis.Run([]*analysis.Package{pkg}, analysis.Suite())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings")
	}
	for _, f := range findings {
		if f.Analyzer != "nakedlock" {
			t.Errorf("unexpected analyzer in fixture findings: %s", f)
		}
	}
	data, err := json.Marshal(findings)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []analysis.Finding
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(findings, back) {
		t.Fatalf("round trip changed findings:\n got %+v\nwant %+v", back, findings)
	}
}

// TestSuppression checks the lint:allow directive end to end: the same
// package analyzed with nakedlock has its annotated site suppressed
// but the unannotated ones reported.
func TestSuppression(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.Load("nakedlock/a")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	findings, err := analysis.Run([]*analysis.Package{pkg}, analysis.Suite())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range findings {
		if f.Line == 0 {
			t.Errorf("finding with no position: %s", f)
		}
	}
	// The fixture has exactly six flagged naked locks; the annotated
	// seventh must not appear.
	if len(findings) != 6 {
		t.Fatalf("got %d findings, want 6 (allow directive not honored?):\n%v", len(findings), findings)
	}
}
