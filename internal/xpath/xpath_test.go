package xpath

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"trustvo/internal/xmldom"
)

const credDoc = `
<credential credID="12" type="ISO 9000 Certified">
  <header>
    <credType>ISO 9000 Certified</credType>
    <issuer>INFN</issuer>
    <expiration_Date>2010-10-26T21:32:52</expiration_Date>
  </header>
  <content>
    <QualityRegulation>UNI EN ISO 9000</QualityRegulation>
    <level>3</level>
  </content>
  <signature>aGVsbG8=</signature>
</credential>`

func doc(t testing.TB, s string) *xmldom.Node {
	t.Helper()
	n, err := xmldom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func evalStr(t testing.TB, expr string, d *xmldom.Node) string {
	t.Helper()
	e, err := Compile(expr)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	return e.StringValue(d)
}

func evalBool(t testing.TB, expr string, d *xmldom.Node) bool {
	t.Helper()
	e, err := Compile(expr)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	return e.Bool(d)
}

func TestAbsolutePath(t *testing.T) {
	d := doc(t, credDoc)
	if got := evalStr(t, "/credential/header/issuer", d); got != "INFN" {
		t.Fatalf("issuer = %q", got)
	}
}

func TestRelativePathFromRoot(t *testing.T) {
	d := doc(t, credDoc)
	if got := evalStr(t, "header/credType", d); got != "ISO 9000 Certified" {
		t.Fatalf("credType = %q", got)
	}
}

func TestAttributeStep(t *testing.T) {
	d := doc(t, credDoc)
	if got := evalStr(t, "/credential/@type", d); got != "ISO 9000 Certified" {
		t.Fatalf("@type = %q", got)
	}
	if got := evalStr(t, "@credID", d); got != "12" {
		t.Fatalf("@credID = %q", got)
	}
}

func TestDescendantOrSelf(t *testing.T) {
	d := doc(t, credDoc)
	if got := evalStr(t, "//QualityRegulation", d); got != "UNI EN ISO 9000" {
		t.Fatalf("//QualityRegulation = %q", got)
	}
	if got := evalStr(t, "//issuer", d); got != "INFN" {
		t.Fatalf("//issuer = %q", got)
	}
}

func TestWildcardAndParent(t *testing.T) {
	d := doc(t, credDoc)
	e := MustCompile("/credential/*")
	if got := len(e.Select(d)); got != 3 {
		t.Fatalf("child count = %d, want 3", got)
	}
	if got := evalStr(t, "/credential/header/../signature", d); got != "aGVsbG8=" {
		t.Fatalf("parent nav = %q", got)
	}
}

func TestPredicatesComparison(t *testing.T) {
	d := doc(t, credDoc)
	cases := []struct {
		expr string
		want bool
	}{
		{`/credential/content/QualityRegulation='UNI EN ISO 9000'`, true},
		{`/credential/content/QualityRegulation='ISO 14000'`, false},
		{`/credential/header/issuer='INFN'`, true},
		{`/credential/content/level > 2`, true},
		{`/credential/content/level >= 3`, true},
		{`/credential/content/level < 3`, false},
		{`/credential/content/level != 3`, false},
		{`/credential[@type='ISO 9000 Certified']/header/issuer = 'INFN'`, true},
		{`/credential[@type='other']`, false},
		{`contains(/credential/content/QualityRegulation, 'ISO 9000')`, true},
		{`starts-with(/credential/header/issuer, 'IN')`, true},
		{`not(/credential/missing)`, true},
		{`count(/credential/content/*) = 2`, true},
		{`/credential/header/issuer='INFN' and /credential/content/level=3`, true},
		{`/credential/header/issuer='X' or /credential/content/level=3`, true},
		{`/credential/header/issuer='X' or /credential/content/level=4`, false},
		{`boolean(//signature)`, true},
		{`string-length(/credential/header/issuer) = 4`, true},
		{`normalize-space(concat('  a ', 'b  ')) = 'a b'`, true},
	}
	for _, c := range cases {
		if got := evalBool(t, c.expr, d); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestPositionalPredicates(t *testing.T) {
	d := doc(t, `<r><i>a</i><i>b</i><i>c</i></r>`)
	if got := evalStr(t, "/r/i[2]", d); got != "b" {
		t.Fatalf("i[2] = %q", got)
	}
	if got := evalStr(t, "/r/i[last()]", d); got != "c" {
		t.Fatalf("i[last()] = %q", got)
	}
	if got := evalStr(t, "/r/i[position()=1]", d); got != "a" {
		t.Fatalf("i[position()=1] = %q", got)
	}
}

func TestUnion(t *testing.T) {
	d := doc(t, `<r><a>1</a><b>2</b><c>3</c></r>`)
	e := MustCompile("/r/c | /r/a")
	ns := e.Select(d)
	if len(ns) != 2 {
		t.Fatalf("union size = %d", len(ns))
	}
	// document order restored
	if ns[0].Name != "a" || ns[1].Name != "c" {
		t.Fatalf("union order = %s,%s", ns[0].Name, ns[1].Name)
	}
}

func TestArithmetic(t *testing.T) {
	d := doc(t, `<r><n>10</n><m>4</m></r>`)
	e := MustCompile("/r/n + /r/m * 2")
	if got := e.Number(d); got != 18 {
		t.Fatalf("arith = %v", got)
	}
	if got := MustCompile("/r/n mod /r/m").Number(d); got != 2 {
		t.Fatalf("mod = %v", got)
	}
	if got := MustCompile("-/r/m + 5").Number(d); got != 1 {
		t.Fatalf("neg = %v", got)
	}
	if got := MustCompile("/r/n div /r/m").Number(d); got != 2.5 {
		t.Fatalf("div = %v", got)
	}
}

func TestTextStep(t *testing.T) {
	d := doc(t, `<r>hello</r>`)
	if got := evalStr(t, "/r/text()", d); got != "hello" {
		t.Fatalf("text() = %q", got)
	}
}

func TestNameFunction(t *testing.T) {
	d := doc(t, `<r><child/></r>`)
	if got := evalStr(t, "name(/r/*)", d); got != "child" {
		t.Fatalf("name = %q", got)
	}
}

func TestSubstring(t *testing.T) {
	d := doc(t, `<r/>`)
	if got := evalStr(t, "substring('12345', 2, 3)", d); got != "234" {
		t.Fatalf("substring = %q", got)
	}
	if got := evalStr(t, "substring('12345', 2)", d); got != "2345" {
		t.Fatalf("substring open = %q", got)
	}
}

func TestExistentialNodesetComparison(t *testing.T) {
	d := doc(t, `<r><v>1</v><v>2</v><v>3</v></r>`)
	// true if ANY v equals 2
	if !evalBool(t, "/r/v = 2", d) {
		t.Fatal("existential equality failed")
	}
	if !evalBool(t, "/r/v > 2", d) {
		t.Fatal("existential > failed")
	}
	if evalBool(t, "/r/v > 3", d) {
		t.Fatal("no v > 3, expected false")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"/a[",
		"foo(",
		"unknownfn()",
		"/a/@",
		"a ! b",
		"'unterminated",
		"contains('x')",
		"a b",
		"count()",
	}
	for _, s := range bad {
		if _, err := Compile(s); err == nil {
			t.Errorf("Compile(%q): expected error", s)
		}
	}
}

func TestSyntaxErrorHasPosition(t *testing.T) {
	_, err := Compile("/a[@b=")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("expected SyntaxError, got %T: %v", err, err)
	}
	if se.Pos == 0 && !strings.Contains(se.Error(), "offset") {
		t.Fatalf("error should carry offset: %v", se)
	}
}

func TestAttrWildcard(t *testing.T) {
	d := doc(t, `<r a="1" b="2"/>`)
	e := MustCompile("count(@*) = 2")
	if !e.Bool(d) {
		t.Fatal("attr wildcard count failed")
	}
}

func TestSelectValuesIncludesAttrs(t *testing.T) {
	d := doc(t, `<r><e k="x">1</e><e k="y">2</e></r>`)
	vals := MustCompile("/r/e/@k").SelectValues(d)
	if len(vals) != 2 || vals[0] != "x" || vals[1] != "y" {
		t.Fatalf("SelectValues = %v", vals)
	}
}

func TestBooleanOfEmptyNodeset(t *testing.T) {
	d := doc(t, `<r/>`)
	if evalBool(t, "/r/missing", d) {
		t.Fatal("empty node-set should be false")
	}
}

func TestRelativeFromInnerContext(t *testing.T) {
	d := doc(t, credDoc)
	header := d.Child("header")
	e := MustCompile("issuer")
	if got := e.StringValue(header); got != "INFN" {
		t.Fatalf("relative from inner = %q", got)
	}
	// absolute path from inner context still reaches document root
	if got := MustCompile("/credential/signature").StringValue(header); got != "aGVsbG8=" {
		t.Fatalf("absolute from inner = %q", got)
	}
}

func TestPredicateOnAttrOfStep(t *testing.T) {
	d := doc(t, `<certs><cert issuer="AAA">1</cert><cert issuer="BBB">2</cert></certs>`)
	if got := evalStr(t, "/certs/cert[@issuer='BBB']", d); got != "2" {
		t.Fatalf("pred attr = %q", got)
	}
}

// Property: compiled expressions never panic on arbitrary small documents.
func TestQuickNoPanic(t *testing.T) {
	exprs := []*Expr{
		MustCompile("//x"),
		MustCompile("/a/b[@c='1']"),
		MustCompile("count(//*) > 0"),
		MustCompile("string(/a)"),
		MustCompile("//*[contains(., 'q')]"),
	}
	f := func(names []uint8, texts []string) bool {
		root := xmldom.NewElement("a")
		cur := root
		for i, b := range names {
			if i > 30 {
				break
			}
			el := xmldom.NewElement(string(rune('a' + b%4)))
			if len(texts) > 0 {
				el.AppendChild(xmldom.NewText(texts[i%len(texts)]))
			}
			cur.AppendChild(el)
			if b%3 == 0 {
				cur = el
			}
		}
		for _, e := range exprs {
			e.Bool(root)
			e.StringValue(root)
			e.Select(root)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateReturnsNodes(t *testing.T) {
	d := doc(t, `<r><a/><a/></r>`)
	v := MustCompile("/r/a").Evaluate(d)
	ns, ok := v.([]*xmldom.Node)
	if !ok || len(ns) != 2 {
		t.Fatalf("Evaluate = %#v", v)
	}
}

func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MustCompile(`/credential[@type='ISO 9000 Certified']/content/QualityRegulation = 'UNI EN ISO 9000'`)
	}
}

func BenchmarkEvalCondition(b *testing.B) {
	d := doc(b, credDoc)
	e := MustCompile(`/credential/content/QualityRegulation = 'UNI EN ISO 9000'`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Bool(d) {
			b.Fatal("condition false")
		}
	}
}

func BenchmarkEvalDescendant(b *testing.B) {
	d := doc(b, credDoc)
	e := MustCompile(`//QualityRegulation`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Select(d)
	}
}

func TestStringFunctions(t *testing.T) {
	d := doc(t, `<r><v>1</v><v>2.5</v><v>3</v></r>`)
	cases := []struct {
		expr string
		want string
	}{
		{`substring-before('2009-10-26', '-')`, "2009"},
		{`substring-before('abc', 'x')`, ""},
		{`substring-before('abc', '')`, ""},
		{`substring-after('2009-10-26', '-')`, "10-26"},
		{`substring-after('abc', 'x')`, ""},
		{`substring-after('abc', '')`, "abc"},
		{`translate('bar', 'abc', 'ABC')`, "BAr"},
		{`translate('--aaa--', 'a-', 'A')`, "AAA"}, // '-' removed
	}
	for _, c := range cases {
		if got := evalStr(t, c.expr, d); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestNumericFunctions(t *testing.T) {
	d := doc(t, `<r><v>1</v><v>2.5</v><v>3</v></r>`)
	cases := []struct {
		expr string
		want float64
	}{
		{`sum(/r/v)`, 6.5},
		{`floor(2.7)`, 2},
		{`ceiling(2.1)`, 3},
		{`round(2.5)`, 3},
		{`round(-2.5)`, -2}, // XPath: round half toward +inf
		{`floor(-2.5)`, -3},
	}
	for _, c := range cases {
		e := MustCompile(c.expr)
		if got := e.Number(d); got != c.want {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
	// sum of a non-nodeset is NaN
	if got := MustCompile(`sum(/r/v)`).Number(d); got != 6.5 {
		t.Errorf("sum = %v", got)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestBoolAllocations guards the per-join cost of one credential
// condition: none. The evaluation state, whose arena holds the
// node-sets, comes from a pool, and the path's node-set is compared in
// the arena without being boxed as a value; the two cost 2 allocations.
func TestBoolAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	d := doc(t, `<credential credID="7" type="WebDesignerQuality"><header><credType>WebDesignerQuality</credType>`+
		`<issuer>QualityCA</issuer></header><content><regulation>UNI EN ISO 9000</regulation></content></credential>`)
	e := MustCompile(`/credential/content/regulation='UNI EN ISO 9000'`)
	if !e.Bool(d) {
		t.Fatal("condition false")
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = e.Bool(d) }); allocs > 0 {
		t.Errorf("Bool allocates %.1f times, want none", allocs)
	}
}

// TestConcurrentEvaluations evaluates one compiled condition and one
// path over two documents from several goroutines at once: under -race
// it finds any evaluation state shared through the pool, and each
// result must be its own document's.
func TestConcurrentEvaluations(t *testing.T) {
	docs := [2]*xmldom.Node{
		doc(t, `<credential><content><regulation>UNI EN ISO 9000</regulation><v>a</v><v>b</v></content></credential>`),
		doc(t, `<credential><content><regulation>ISO 14001</regulation><v>c</v></content></credential>`),
	}
	cond := MustCompile(`/credential/content/regulation='UNI EN ISO 9000'`)
	vals := MustCompile(`/credential/content/v`)
	want := [2]string{"a b", "c"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 2
				if got := cond.Bool(docs[k]); got != (k == 0) {
					t.Errorf("condition on document %d = %v", k, got)
					return
				}
				if got := strings.Join(vals.SelectValues(docs[k]), " "); got != want[k] {
					t.Errorf("values of document %d = %q, want %q", k, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNumberConversionFollowsXPath10 pins number() and string() of a
// number to XPath 1.0 (§4.2, §4.4): a string is a number only in the
// Number production, with optional '-' and surrounding XML whitespace;
// a number prints with no exponent, and as Infinity, -Infinity and 0
// for the infinities and negative zero.
func TestNumberConversionFollowsXPath10(t *testing.T) {
	d := doc(t, `<r><v>1e3</v><w> 12 </w></r>`)
	nums := []struct {
		expr string
		want float64 // NaN when the string is not a Number
	}{
		{`number('12')`, 12},
		{`number(' 12 ')`, 12},
		{"number('\t-3.5\n')", -3.5},
		{`number('.5')`, 0.5},
		{`number('5.')`, 5},
		{`number('-.25')`, -0.25},
		{`number('007')`, 7},
		{`number(/r/w)`, 12},
		{`number('1e3')`, math.NaN()},
		{`number(/r/v)`, math.NaN()},
		{`number('+5')`, math.NaN()},
		{`number('Infinity')`, math.NaN()},
		{`number('-Infinity')`, math.NaN()},
		{`number('NaN')`, math.NaN()},
		{`number('inf')`, math.NaN()},
		{`number('0x10')`, math.NaN()},
		{`number('1_000')`, math.NaN()},
		{`number('')`, math.NaN()},
		{`number(' ')`, math.NaN()},
		{`number('.')`, math.NaN()},
		{`number('-')`, math.NaN()},
		{`number('- 5')`, math.NaN()},
		{`number('1 2')`, math.NaN()},
		{`number('1.2.3')`, math.NaN()},
		{"number('\u00a05')", math.NaN()},
		{"number('\v5')", math.NaN()},
	}
	for _, c := range nums {
		got := MustCompile(c.expr).Number(d)
		if got != c.want && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
	if MustCompile(`/r/v > 500`).Bool(d) {
		t.Error("'1e3' compared as a number")
	}
	strs := []struct{ expr, want string }{
		{`string(1 div 0)`, "Infinity"},
		{`string(-1 div 0)`, "-Infinity"},
		{`string(0 div 0)`, "NaN"},
		{`string(-0)`, "0"},
		{`string(0 * -1)`, "0"},
		{`string(0.0000001)`, "0.0000001"},
		{`string(1000000000000000000000)`, "1000000000000000000000"},
		{`string(123456789012345678)`, "123456789012345680"},
		{`string(-2.5)`, "-2.5"},
		{`string(3)`, "3"},
		{`string(0.1 + 0.2)`, "0.30000000000000004"},
		{`concat(1 div 0, '')`, "Infinity"},
	}
	for _, c := range strs {
		if got := evalStr(t, c.expr, d); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

// TestChildNames: the children of /credential/content an expression
// names, and whether it may read others.
func TestChildNames(t *testing.T) {
	for _, c := range []struct {
		expr  string
		names string // space-separated; "*" for all
	}{
		{`/credential/content/regulation = 'x'`, "regulation"},
		{`content/regulation != 'content/secret'`, "regulation"},
		{`content/a and content/b or /credential/content/a`, "a b"},
		{`/credential/content[a = 1]/b`, "a b"},
		{`/credential/*/x`, "x"},
		{`content/a[. = 'v'] | content/b[string() = 'v']`, "a b"},
		{`count(/credential/content/a) > 0`, "a"},
		{`/credential/header/issuer = 'X' and header/credType`, ""},
		{`/credential/content/@id or content/text()`, ""},
		{`/credential/content/a//b`, "a"},
		{`content/*`, "*"},
		{`content/node()`, "*"},
		{`content//x`, "*"},
		{`//x`, "*"},
		{`/credential/content`, "*"},
		{`/credential`, "*"},
		{`/`, "*"},
		{`. = 'x'`, "*"},
		{`string-length() > 0`, "*"},
		{`content/a/.. = 'x'`, "*"},
		{`header/../content/a`, "*"},
	} {
		names, all := MustCompile(c.expr).ChildNames("credential", "content")
		got := strings.Join(names, " ")
		if all {
			got = "*"
		}
		if got != c.names {
			t.Errorf("%s: ChildNames = %q, want %q", c.expr, got, c.names)
		}
	}
}
