package xpath

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"trustvo/internal/xmldom"
)

// FuzzEvalMatchesReference checks the evaluator against the reference
// evaluator kept in reference_test.go. Each input is an expression, or,
// when src is empty, one generated from data (paths over the child,
// attribute, descendant, parent and self axes, predicates positional or
// not, unions, comparisons, arithmetic and the function library), and a
// small document generated from data, evaluated from its root and from
// one inner node. Bool, Number (NaN-aware), StringValue, Select and
// SelectValues must agree.
func FuzzEvalMatchesReference(f *testing.F) {
	for _, src := range testFileExprs(f) {
		f.Add(src, []byte{3, 1, 4, 1, 5, 9, 2, 6})
		f.Add(src, []byte{0})
	}
	for i := range 32 {
		f.Add("", []byte{byte(i), byte(i * 7), byte(i * 13), 2, byte(i * 3), 1, 0, byte(i * 5), 4, 9, byte(i)})
	}
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		g := &exprGen{data: data}
		root := g.document()
		ctxs := []*xmldom.Node{root, g.innerNode(root)}
		if src == "" {
			src = g.expr(3)
		}
		e, err := Compile(src)
		if err != nil {
			return
		}
		for _, ctx := range ctxs {
			if got, want := e.Bool(ctx), refBool(e, ctx); got != want {
				t.Fatalf("%s: Bool = %v, reference %v\ndocument %s", src, got, want, root.XML())
			}
			if got, want := e.Number(ctx), refNumber(e, ctx); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s: Number = %v, reference %v\ndocument %s", src, got, want, root.XML())
			}
			if got, want := e.StringValue(ctx), refStringValue(e, ctx); got != want {
				t.Fatalf("%s: StringValue = %q, reference %q\ndocument %s", src, got, want, root.XML())
			}
			if got, want := e.Select(ctx), refSelect(e, ctx); !slices.Equal(got, want) {
				t.Fatalf("%s: Select = %v, reference %v\ndocument %s", src, names(got), names(want), root.XML())
			}
			if got, want := e.SelectValues(ctx), refSelectValues(e, ctx); !slices.Equal(got, want) {
				t.Fatalf("%s: SelectValues = %q, reference %q\ndocument %s", src, got, want, root.XML())
			}
		}
	})
}

func names(ns []*xmldom.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Type.String() + ":" + n.Name + n.Data
	}
	return out
}

// testFileExprs returns every string literal in xpath_test.go that
// compiles: the expressions the unit tests evaluate.
func testFileExprs(tb testing.TB) []string {
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "xpath_test.go", nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != gotoken.STRING {
			return true
		}
		if s, err := strconv.Unquote(lit.Value); err == nil {
			if _, err := Compile(s); err == nil {
				out = append(out, s)
			}
		}
		return true
	})
	if len(out) < 50 {
		tb.Fatalf("only %d expressions found in xpath_test.go", len(out))
	}
	return out
}

// exprGen draws documents and expressions from fuzz data; once the data
// runs out it keeps drawing zeros.
type exprGen struct{ data []byte }

func (g *exprGen) intn(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

func (g *exprGen) pick(opts ...string) string { return opts[g.intn(len(opts))] }

// values are the texts and attribute values of generated documents:
// numbers XPath reads, numbers it does not, and plain strings.
var values = []string{"1", "2", "2.5", "-3", "10", "0", "-0", " 7 ", "1e3", "+5", "Infinity", "NaN", "", "abc", "a b"}

// document generates a tree of at most 14 nodes over four element
// names. Attributes are set directly, so a name may repeat as a parsed
// document allows.
func (g *exprGen) document() *xmldom.Node {
	budget := 14
	var build func(depth int) *xmldom.Node
	build = func(depth int) *xmldom.Node {
		budget--
		el := xmldom.NewElement(g.pick("a", "b", "c", "d"))
		for k := g.intn(3); k > 0; k-- {
			el.Attrs = append(el.Attrs, xmldom.Attr{Name: g.pick("x", "y", "z"), Value: values[g.intn(len(values))]})
		}
		for k := g.intn(4); k > 0 && budget > 0; k-- {
			if depth < 3 && g.intn(3) > 0 {
				el.AppendChild(build(depth + 1))
			} else {
				budget--
				el.AppendChild(xmldom.NewText(values[g.intn(len(values))]))
			}
		}
		return el
	}
	return build(0)
}

// innerNode picks a node of the tree, the root included.
func (g *exprGen) innerNode(root *xmldom.Node) *xmldom.Node {
	var all []*xmldom.Node
	root.Walk(func(n *xmldom.Node) bool {
		all = append(all, n)
		return true
	})
	return all[g.intn(len(all))]
}

func (g *exprGen) expr(depth int) string {
	if depth <= 0 {
		return g.primary()
	}
	switch g.intn(9) {
	case 0, 1:
		op := g.pick("or", "and", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "div", "mod")
		return g.expr(depth-1) + " " + op + " " + g.expr(depth-1)
	case 2:
		return g.path(depth-1) + " | " + g.path(depth-1)
	case 3:
		return "-(" + g.expr(depth-1) + ")"
	case 4:
		return g.call(depth - 1)
	case 5:
		return "(" + g.expr(depth-1) + ")"
	default:
		return g.path(depth - 1)
	}
}

func (g *exprGen) primary() string {
	switch g.intn(3) {
	case 0:
		return g.pick("0", "1", "2", "3", "2.5", ".5", "500")
	case 1:
		return "'" + values[g.intn(len(values))] + "'"
	default:
		return g.path(0)
	}
}

func (g *exprGen) path(depth int) string {
	var b strings.Builder
	switch g.intn(4) {
	case 0:
		b.WriteString("/")
		if g.intn(8) == 0 {
			return "/" // the document node alone
		}
	case 1:
		b.WriteString("//")
	}
	for i := range 1 + g.intn(3) {
		if i > 0 {
			b.WriteString(g.pick("/", "/", "/", "//"))
		}
		b.WriteString(g.pick("a", "b", "c", "d", "*", "@x", "@y", "@*", ".", "..", "text()", "node()"))
		for k := g.intn(4); k > 1; k-- {
			b.WriteString("[" + g.predicate(depth) + "]")
		}
	}
	return b.String()
}

func (g *exprGen) predicate(depth int) string {
	switch g.intn(4) {
	case 0:
		return g.pick("1", "2", "3", "last()", "position()=2", "position()<last()")
	case 1:
		return g.pick("@x", "@y='1'", "text()", ". = '2'", "b", "name()='c'")
	default:
		return g.expr(depth - 1)
	}
}

func (g *exprGen) call(depth int) string {
	arg := func() string { return g.expr(depth) }
	switch g.intn(23) {
	case 0:
		return "string(" + g.pick("", arg()) + ")"
	case 1:
		return "number(" + g.pick("", arg()) + ")"
	case 2:
		return "boolean(" + arg() + ")"
	case 3:
		return "not(" + arg() + ")"
	case 4:
		return g.pick("true()", "false()", "last()", "position()")
	case 5:
		return "count(" + g.path(depth) + ")"
	case 6:
		return "name(" + g.pick("", g.path(depth)) + ")"
	case 7:
		return "contains(" + arg() + ", " + arg() + ")"
	case 8:
		return "starts-with(" + arg() + ", " + arg() + ")"
	case 9:
		return "normalize-space(" + g.pick("", arg()) + ")"
	case 10:
		return "string-length(" + g.pick("", arg()) + ")"
	case 11:
		return "concat(" + arg() + ", " + arg() + g.pick("", ", "+arg()) + ")"
	case 12:
		return "substring(" + arg() + ", " + arg() + g.pick("", ", "+arg()) + ")"
	case 13:
		return "substring-before(" + arg() + ", " + arg() + ")"
	case 14:
		return "substring-after(" + arg() + ", " + arg() + ")"
	case 15:
		return "translate(" + arg() + ", " + arg() + ", " + arg() + ")"
	case 16:
		return "sum(" + g.path(depth) + ")"
	case 17:
		return "floor(" + arg() + ")"
	case 18:
		return "ceiling(" + arg() + ")"
	case 19:
		return "round(" + arg() + ")"
	case 20:
		return "count(" + g.path(depth) + " | " + g.path(depth) + ")"
	default:
		return g.path(depth) + " = " + g.primary()
	}
}
