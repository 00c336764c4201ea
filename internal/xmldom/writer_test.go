package xmldom

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestSerializersMatchReference re-serializes the FuzzParse seed corpus
// (every testdata document and every hand-written seed the parser
// accepts) through (*Node).XML and Indented and through the serializers
// they replaced, which must agree byte for byte.
func TestSerializersMatchReference(t *testing.T) {
	docs := seedDocuments(t)
	var inputs []string
	for _, name := range sortedKeys(docs) {
		inputs = append(inputs, docs[name])
	}
	inputs = append(inputs, parseSeeds...)
	accepted := 0
	for _, doc := range inputs {
		n, err := ParseString(doc)
		if err != nil {
			continue
		}
		accepted++
		if got, want := n.XML(), refXML(n); got != want {
			t.Errorf("XML of %q:\n got  %q\n want %q", doc, got, want)
		}
		if got, want := n.Indented(), refIndented(n); got != want {
			t.Errorf("Indented of %q:\n got  %q\n want %q", doc, got, want)
		}
	}
	if accepted < 50 {
		t.Fatalf("only %d seed documents parsed", accepted)
	}
	for seed := 0; seed < 256; seed++ {
		n := randomTree([]byte{byte(seed), byte(seed * 7), byte(seed * 13), 3, byte(seed), 2, 0, 3, 1, 4, byte(seed * 3)})
		if got, want := n.XML(), refXML(n); got != want {
			t.Errorf("XML of random tree %d:\n got  %q\n want %q", seed, got, want)
		}
	}
}

// writeSample is a layout exercising every Writer method.
func writeSample(w *Writer) {
	w.Start("doc")
	w.Attr("z", `q"<&>`)
	w.AttrInt("n", -42)
	w.Attr("b", "1")
	w.AttrBase64("salt", []byte{0xfb, 0xff, 0x01})
	w.AttrTime("at", time.Date(2009, 10, 26, 21, 32, 52, 0, time.UTC), time.RFC3339)
	w.Start("empty")
	w.End()
	w.Start("emptyText")
	w.Text("")
	w.End()
	w.Start("text")
	w.Attr("k", "v")
	w.Text("a < b & c > d \"q\"")
	w.End()
	w.Start("bin")
	w.TextBase64([]byte("hello"))
	w.End()
	w.Start("noBin")
	w.TextBase64(nil)
	w.End()
	w.Start("when")
	w.TextTime(time.Date(2010, 1, 2, 3, 4, 5, 0, time.UTC), "2006-01-02T15:04:05")
	w.End()
	w.Comment(" note ")
	w.Start("mixed")
	w.Text("x")
	w.Start("i")
	w.End()
	w.Text("y")
	w.End()
	w.End()
}

const sampleXML = `<doc at="2009-10-26T21:32:52Z" b="1" n="-42" salt="+/8B" z="q&quot;&lt;&amp;&gt;">` +
	`<empty/><emptyText></emptyText><text k="v">a &lt; b &amp; c &gt; d "q"</text>` +
	`<bin>aGVsbG8=</bin><noBin></noBin><when>2010-01-02T03:04:05</when><!-- note -->` +
	`<mixed>x<i/>y</mixed></doc>`

func TestWriterCanonicalForm(t *testing.T) {
	if got := String(writeSample); got != sampleXML {
		t.Fatalf("String:\n got  %s\n want %s", got, sampleXML)
	}
	if got := string(Bytes(writeSample)); got != sampleXML {
		t.Fatalf("Bytes:\n got  %s\n want %s", got, sampleXML)
	}
	// The tree keeps attributes in the order given and every text child,
	// including the empty ones, so it serializes to the same bytes.
	tree := Tree(writeSample)
	if got := tree.XML(); got != sampleXML {
		t.Fatalf("Tree(...).XML():\n got  %s\n want %s", got, sampleXML)
	}
	var names []string
	for _, a := range tree.Attrs {
		names = append(names, a.Name)
	}
	if got, want := len(names), 5; got != want || names[0] != "z" || names[4] != "at" {
		t.Fatalf("tree attributes %v, want them in the order written", names)
	}
	if et := tree.Child("emptyText"); len(et.Children) != 1 || et.Children[0].Type != TextNode || et.Children[0].Data != "" {
		t.Fatalf("empty text child not kept: %+v", et.Children)
	}
	if nb := tree.Child("noBin"); len(nb.Children) != 1 || nb.Children[0].Data != "" {
		t.Fatalf("empty base64 text child not kept: %+v", nb.Children)
	}
	if tree.Parent != nil || tree.Child("text").Parent != tree {
		t.Fatal("parent links not set")
	}
}

// TestTreeNodesMutableInPlace checks that the slabs behind a Tree result
// are capped per node: AppendChild and SetAttr on any one node leave
// every other node's attributes and children as they were.
func TestTreeNodesMutableInPlace(t *testing.T) {
	walk := func(root *Node) []*Node {
		var all []*Node
		root.Walk(func(n *Node) bool {
			all = append(all, n)
			return true
		})
		return all
	}
	shape := func(n *Node) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%v %q %q %p attrs", n.Type, n.Name, n.Data, n.Parent)
		for _, a := range n.Attrs {
			fmt.Fprintf(&b, " %s=%q", a.Name, a.Value)
		}
		b.WriteString(" children")
		for _, c := range n.Children {
			fmt.Fprintf(&b, " %p", c)
		}
		return b.String()
	}
	count := len(walk(Tree(writeSample)))
	for i := range count {
		all := walk(Tree(writeSample))
		before := make([]string, len(all))
		for j, n := range all {
			before[j] = shape(n)
		}
		target := all[i]
		added := NewElement("added")
		target.AppendChild(added)
		target.SetAttr("added", "1")
		for j, n := range all {
			if j != i && shape(n) != before[j] {
				t.Errorf("mutating node %d changed node %d:\n before %s\n after  %s", i, j, before[j], shape(n))
			}
		}
		if last := target.Children[len(target.Children)-1]; last != added || target.AttrOr("added", "") != "1" {
			t.Errorf("node %d did not take the new child and attribute: %s", i, shape(target))
		}
	}
	if count < 15 {
		t.Fatalf("sample tree has only %d nodes", count)
	}
}

// TestTreePanicsWhenEncodeGrows checks that Tree refuses an encode that
// writes more on its second call than on its first, whichever slab the
// extra call overruns, instead of building a tree that differs from the
// document.
func TestTreePanicsWhenEncodeGrows(t *testing.T) {
	for name, extra := range map[string]func(*Writer){
		"element": func(w *Writer) { w.Start("x"); w.End() },
		"text":    func(w *Writer) { w.Text("x") },
		"value":   func(w *Writer) { w.AttrInt("n", 1) },
		"attr":    func(w *Writer) { w.Attr("b", "2") },
	} {
		t.Run(name, func(t *testing.T) {
			calls := 0
			encode := func(w *Writer) {
				calls++
				w.Start("root")
				w.Attr("a", "1")
				if calls == 2 {
					extra(w)
				}
				w.Start("child")
				w.End()
				w.End()
			}
			defer func() {
				if recover() == nil {
					t.Error("Tree built a tree from a growing encode")
				}
			}()
			Tree(encode)
		})
	}
}

// TestWriterAllocations guards the point of the Writer: a document costs
// one allocation, the string handed back.
func TestWriterAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	String(writeSample) // warm the pool
	if allocs := testing.AllocsPerRun(200, func() { _ = String(writeSample) }); allocs > 1 {
		t.Errorf("String allocates %.1f times per document, want 1", allocs)
	}
	n := Tree(writeSample)
	if allocs := testing.AllocsPerRun(200, func() { _ = n.XML() }); allocs > 1 {
		t.Errorf("(*Node).XML allocates %.1f times per document, want 1", allocs)
	}
}

// TestRoundTripPredicates checks TextRoundTrips and AttrRoundTrips
// against what the parser makes of the written document, and that every
// NCName comes back as written.
func TestRoundTripPredicates(t *testing.T) {
	values := []string{
		"", "a", " a ", " ", "\t\n", "\u00a0", " x", "a\rb", "a\r\nb", "\r", "\n", "a\nb",
		"\x00", "a\x01", "\xff", "\xc3", "\ufffd", "\ufffe", "é", "\U0001F600", "]]>", `&<>"'`,
	}
	for r := rune(0); r < 0x3000; r += 7 {
		values = append(values, "x"+string(r))
	}
	for _, v := range values {
		tn, err := ParseString(String(func(w *Writer) { w.Start("a"); w.Text(v); w.End() }))
		if got, want := TextRoundTrips(v), err == nil && tn.Text() == v; got != want {
			t.Errorf("TextRoundTrips(%q) = %v, parser says %v (err %v)", v, got, want, err)
		}
		an, err := ParseString(String(func(w *Writer) { w.Start("a"); w.Attr("v", v); w.End() }))
		if got, want := AttrRoundTrips(v), err == nil && an.AttrOr("v", "") == v; got != want {
			t.Errorf("AttrRoundTrips(%q) = %v, parser says %v (err %v)", v, got, want, err)
		}
	}
	names := []string{"a", "_x", "a.b-c_d9", "été", "a\u0300", "xmlns", "xml-ish",
		"", "a b", "1x", ".a", "-a", "x:y", ":a", "a:", "a\x00", "\xff", "\u0300", "a=b", "a/b"}
	for r := rune(0x80); r < 0x3000; r += 5 {
		names = append(names, "n"+string(r), string(r))
	}
	ncnames := 0
	for _, n := range names {
		if !IsNCName(n) {
			continue
		}
		ncnames++
		root, err := ParseString("<" + n + "/>")
		if err != nil || root.Name != n {
			t.Errorf("IsNCName(%q) but the parser returns %v, %v", n, root, err)
		}
	}
	for _, n := range []string{"", "a b", "1x", "x:y", ":a", "a:", "\xff", "\u0300", "a=b"} {
		if IsNCName(n) {
			t.Errorf("IsNCName(%q) = true", n)
		}
	}
	if ncnames < 100 {
		t.Fatalf("only %d NCNames exercised", ncnames)
	}
}

var xmlSink string

// BenchmarkXML serializes each parsed testdata document.
func BenchmarkXML(b *testing.B) {
	docs := seedDocuments(b)
	for _, name := range sortedKeys(docs) {
		n, err := ParseString(docs[name])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(strings.TrimSuffix(name, ".xml"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				xmlSink = n.XML()
			}
		})
	}
}

// TestWritesMatchesString: Writes(want, encode) holds exactly when
// String(encode) is want, for every seed document, random trees and the
// sample layout, against the document itself and against every cut,
// extension and one-byte change of it; and a comparison allocates
// nothing.
func TestWritesMatchesString(t *testing.T) {
	docs := seedDocuments(t)
	var encodes []func(*Writer)
	for _, name := range sortedKeys(docs) {
		if n, err := ParseString(docs[name]); err == nil {
			encodes = append(encodes, n.Encode)
		}
	}
	for seed := 0; seed < 64; seed++ {
		encodes = append(encodes, randomTree([]byte{byte(seed), byte(seed * 7), 3, byte(seed), 2, 0, 3, 1}).Encode)
	}
	encodes = append(encodes, writeSample)
	for _, encode := range encodes {
		doc := []byte(String(encode))
		checkWrites(t, doc, encode)
		for _, i := range []int{0, 1, len(doc) / 2, len(doc) - 1} {
			if i < 0 || i >= len(doc) {
				continue
			}
			checkWrites(t, doc[:i], encode)
			changed := append([]byte(nil), doc...)
			changed[i] ^= 0x20
			checkWrites(t, changed, encode)
		}
		checkWrites(t, append(doc[:len(doc):len(doc)], '<'), encode)
	}

	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	doc := []byte(String(writeSample))
	Writes(doc, writeSample) // warm the pool
	if allocs := testing.AllocsPerRun(200, func() { _ = Writes(doc, writeSample) }); allocs != 0 {
		t.Errorf("Writes allocates %.1f times per document, want 0", allocs)
	}
}

func checkWrites(t *testing.T, want []byte, encode func(*Writer)) {
	t.Helper()
	if got, exp := Writes(want, encode), String(encode) == string(want); got != exp {
		t.Errorf("Writes(%q) = %v, String gives %q", want, got, String(encode))
	}
}

// FuzzWrites diffs Writes against String: for any parsed document and
// any candidate bytes, Writes holds exactly when the document's
// canonical form is those bytes.
func FuzzWrites(f *testing.F) {
	f.Add(`<a x="1"><b>t</b><c/></a>`, `<a x="1"><b>t</b><c/></a>`)
	f.Add(`<a z="&quot;" b="2">x&amp;y<!--c--></a>`, `<a b="2" z="&quot;">x&amp;y<!--c--></a>`)
	f.Add(`<a><b/></a>`, `<a><b></b></a>`)
	f.Fuzz(func(t *testing.T, doc, want string) {
		n, err := ParseString(doc)
		if err != nil {
			return
		}
		checkWrites(t, []byte(want), n.Encode)
		checkWrites(t, []byte(n.XML()), n.Encode)
	})
}
