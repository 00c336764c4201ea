package xmldom

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// parseSeeds are hand-written documents for the cases where the scanner
// must reproduce encoding/xml exactly: namespaces, CDATA, entities,
// comments, processing instructions, directives, line ends, invalid
// UTF-8, and malformed markup of every kind.
var parseSeeds = []string{
	// namespaces
	`<owl:Class xmlns:owl="http://www.w3.org/2002/07/owl#" rdf:ID="g" xmlns:rdf="r"/>`,
	`<a xmlns="d"><b/><c xmlns=""><d/></c><e x="1"/></a>`,
	`<x:a xmlns:x="1"><x:b xmlns:x="2"/><x:c/></x:a>`,
	`<xml:a xml:lang="en" xmlns:xml="z"/>`,
	`<xmlns:a xmlns:xmlns="q" xmlns:b="v"/>`,
	`<xmlns xmlns="d"><b/></xmlns>`,
	`<p:a p:b="1"/>`,
	`<a :b="1" c:="2" xmlns:="u"/>`,
	`<a:b:c/>`,
	`<a xmlns:p=""><p:b p:c="1"/></a>`,
	`<x:a xmlns:x="u" xmlns:y="u"></y:a>`,
	`<a xmlns:p="1" xmlns:p="2"><p:b/></a>`,
	// CDATA
	`<a><![CDATA[x<y&z]]></a>`,
	`<a>t<![CDATA[]]>u</a>`,
	`<a><![CDATA[]]></a>`,
	`<a>x<![CDATA[ ]]></a>`,
	`<a><![CDATA[a]]b]]]></a>`,
	"<a><![CDATA[\r\n\r]]></a>",
	`<a><![CDAT[x]]></a>`,
	`<a><![CDATA[x</a>`,
	`<![CDATA[x]]><a/>`,
	// entities and character references
	`<a b="&lt;&gt;&amp;&apos;&quot;">&#65;&#x42;&#x1F600;&#x1f600;</a>`,
	`<a>&nbsp;</a>`,
	`<a>&#0;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#X41;</a>`,
	`<a>&#;</a>`,
	`<a>&#x;</a>`,
	`<a>&#1114112;</a>`,
	`<a>&#99999999999999999999999;</a>`,
	`<a>&lt</a>`,
	`<a>&#32;</a>`,
	`<a>x&#32;</a>`,
	`<a b="&amp"/>`,
	`<a b="&#x9;&#xA;&#xD;"/>`,
	`<a>&</a>`,
	// comments
	`<a><!--c--><b/><!-- x --></a>`,
	`<a><!-- a -- b --></a>`,
	`<a><!---></a>`,
	`<a><!----></a>`,
	`<a><!-----></a>`,
	`<!--pre--><a/><!--post-->`,
	`<a><!-x--></a>`,
	"<a><!--\xff\r\n--></a>",
	`<a>x<!--c-->y</a>`,
	// processing instructions
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml encoding="latin1"?><a/>`,
	`<?xml version='1.0' encoding='utf-8' standalone="yes"?><a/>`,
	`<a><?pi data?>t</a>`,
	`<a>x<?p?>y</a>`,
	`<? x?><a/>`,
	`<?1x?><a/>`,
	`<a><?xml encoding="latin1"?></a>`,
	`<?xml-stylesheet href="a"?><a/>`,
	// directives
	`<!DOCTYPE a [<!ENTITY e "x">]><a/>`,
	`<!DOCTYPE a [<!-- > -->]><a/>`,
	`<!DOCTYPE a "'>"><a/>`,
	`<!><a/>`,
	`<!DOCTYPE a<a/>`,
	`<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>`,
	`<!'><a/>`,
	`<!DOCTYPE a [<<!-x>]><a/>`,
	// line ends
	"<a b=\"1\r\n2\r3\">x\r\ny\rz</a>",
	"<a>\r\n<b/>\r\n</a>",
	"<a>\r\r\n</a>",
	"<a>&amp;\r\n</a>",
	"<a\r\nb='1'\r\n/>",
	// invalid UTF-8 and characters outside the Char production
	"<a>\xff</a>",
	"<a b=\"\xc3\"/>",
	"<\xc3\xa9/>",
	"<a\xff/>",
	"<a>\xed\xa0\x80</a>",
	"<a>\x01</a>",
	"<a>\uFFFE</a>",
	"<a>\uFFFD</a>",
	"\xff<a/>",
	"<a/>\x00",
	"\uFEFF<a/>",
	"<\u00E9t\u00E9 \u00E0=\"1\"/>",
	"<a\u0300/>",
	"<\u0300/>",
	// structure
	`<a><b></a>`,
	`<a></a><b></b>`,
	`<a>`,
	``,
	`plain text`,
	`<a/>trailing`,
	`lead<a/>`,
	`<a>]]></a>`,
	`<a b="]]>"/>`,
	`<a b="<"/>`,
	`<a b=1/>`,
	`<a b/>`,
	`<a b="1"c='2'/>`,
	`<a/ >`,
	`</a>`,
	`<a></a >`,
	`<a></a x>`,
	`<a x="1" x="2"/>`,
	"<a>\u00A0</a>",
	"<a>\u00A0<b/>\u2003</a>",
	`<a>hello <b>bold</b> world</a>`,
	`<a>  <b/>  x  <c/>  </a>`,
	`<1a/>`,
	`<a.b-c_d/>`,
	`<-a/>`,
	`<a`,
	`<`,
	`<a b="1`,
	`<a>x</a`,
	`< a/>`,
}

// seedDocuments returns the documents under testdata/ in this package and
// at the repository root, keyed by file name.
func seedDocuments(tb testing.TB) map[string]string {
	tb.Helper()
	var files []string
	for _, pattern := range []string{"testdata/*.xml", "../../testdata/*.xml"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			tb.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 7 {
		tb.Fatalf("found %d seed documents, want at least 7", len(files))
	}
	docs := make(map[string]string, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		docs[filepath.Base(f)] = string(b)
	}
	return docs
}

// treeString renders every node's type, name, attributes in source
// order, data and child count, and checks the parent links.
func treeString(tb testing.TB, n *Node) string {
	var b strings.Builder
	var walk func(n *Node)
	walk = func(n *Node) {
		fmt.Fprintf(&b, "%s %q %q [", n.Type, n.Name, n.Data)
		for _, a := range n.Attrs {
			fmt.Fprintf(&b, "%q=%q ", a.Name, a.Value)
		}
		fmt.Fprintf(&b, "] %d(", len(n.Children))
		for _, c := range n.Children {
			if c.Parent != n {
				tb.Errorf("child %s %q of %q has the wrong parent", c.Type, c.Name, n.Name)
			}
			walk(c)
		}
		b.WriteString(")")
	}
	walk(n)
	return b.String()
}

// FuzzParse checks the scanner against parseReference, the encoding/xml
// builder it replaced: both must accept or reject every input, and build
// identical trees from what they accept. The scanner has no deliberate
// exceptions; any disagreement fails. Each accepted tree is also
// serialized by (*Node).XML and by refXML, the serializer the Writer
// replaced, which must agree byte for byte.
func FuzzParse(f *testing.F) {
	for _, doc := range seedDocuments(f) {
		f.Add(doc)
	}
	for _, doc := range parseSeeds {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		got, err := ParseString(doc)
		want, refErr := parseReference(strings.NewReader(doc))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("parse %q: scanner error %v, reference error %v", doc, err, refErr)
		}
		if err != nil {
			if err != ErrNoRoot && !strings.HasPrefix(err.Error(), "xmldom: parse: ") {
				t.Fatalf("parse %q: error %q lacks the xmldom: parse: prefix", doc, err)
			}
			return
		}
		if g, w := treeString(t, got), treeString(t, want); g != w {
			t.Fatalf("parse %q: trees differ\nscanner:   %s\nreference: %s", doc, g, w)
		}
		if g, w := got.XML(), refXML(got); g != w {
			t.Fatalf("parse %q: serializations differ\nwriter:    %q\nreference: %q", doc, g, w)
		}
		// The Reader's first token is the root's start tag, read as the
		// parse reads it: what precedes the root yields no token.
		head, err := firstStartTag(doc)
		if err != nil || head.Name != got.Name || !slices.Equal(head.Attrs, got.Attrs) || head.Children != nil {
			t.Fatalf("first start tag of %q = %+v, %v; want the root %s with attributes %v", doc, head, err, got.Name, got.Attrs)
		}
	})
}

// firstStartTag reads the first token of doc through a Reader, which
// must be a start tag, and returns it as an element without children;
// nothing after the tag is read.
func firstStartTag(doc string) (*Node, error) {
	r := NewReader(doc)
	defer r.Release()
	if r.Next() != StartToken {
		return nil, fmt.Errorf("first token of %q: %v", doc, r.Err())
	}
	return &Node{Type: ElementNode, Name: r.Name(), Attrs: slices.Clone(r.Attrs())}, nil
}

// TestParseStartTag: the Reader's first start tag has its attributes
// decoded as a parse decodes them, and nothing after the tag is read. A
// prolog (text, a declaration, a comment) yields no token before it.
func TestParseStartTag(t *testing.T) {
	for doc, want := range map[string]string{
		`<tnSession id="a&amp;b" lastSeq='2'><unclosed`: `<tnSession id="a&amp;b" lastSeq="2"/>`,
		`<e a="x&#10;y"/>trailing garbage <`:            `<e a="x` + "\n" + `y"/>`,
		`text<e/>`:                                      `<e/>`,
		`<?xml version="1.0"?><e/>`:                     `<e/>`,
		`<!--c--><e b='1'/>`:                            `<e b="1"/>`,
	} {
		head, err := firstStartTag(doc)
		if err != nil || head.XML() != want {
			t.Errorf("first start tag of %q = %v, %v; want %s", doc, head, err, want)
		}
	}
	for _, doc := range []string{``, `<`, `</e>`, `<e a=1/>`, `<e a="1"`, `<e a="&bogus;"/>`} {
		if head, err := firstStartTag(doc); err == nil {
			t.Errorf("first start tag of %q = %v, want an error", doc, head.XML())
		}
	}
}

// TestNameTablesMatchReference checks the name-character tables rune by
// rune over the Basic Multilingual Plane, as a first and as a later
// character of an element name.
func TestNameTablesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("walks 63k runes through both parsers")
	}
	for r := rune(0x80); r <= 0xFFFF; r++ {
		if r >= 0xD800 && r <= 0xDFFF {
			continue
		}
		for _, doc := range []string{"<" + string(r) + "/>", "<a" + string(r) + "/>"} {
			_, err := ParseString(doc)
			_, refErr := parseReference(strings.NewReader(doc))
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%U in %q: scanner error %v, reference error %v", r, doc, err, refErr)
			}
		}
	}
}

// TestParsedNodesDoNotShareSlices: parsed siblings' attribute and child
// slices are adjacent in one allocation, so growing one must reallocate
// rather than overwrite the next.
func TestParsedNodesDoNotShareSlices(t *testing.T) {
	root, err := ParseString(`<r><a i="1"><x/></a><b j="2"><y/></b><c/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	a, b := root.Child("a"), root.Child("b")
	a.AppendChild(NewElement("z"))
	a.SetAttr("k", "3")
	b.Children[0].AppendChild(NewText("t"))
	root.AppendChild(NewElement("d"))
	if got, want := a.XML(), `<a i="1" k="3"><x/><z/></a>`; got != want {
		t.Errorf("a = %s, want %s", got, want)
	}
	if got, want := b.XML(), `<b j="2"><y>t</y></b>`; got != want {
		t.Errorf("b = %s, want %s", got, want)
	}
	if got, want := root.XML(), `<r><a i="1" k="3"><x/><z/></a><b j="2"><y>t</y></b><c/><d/></r>`; got != want {
		t.Errorf("root = %s, want %s", got, want)
	}
}

// TestParseNamespacesLinear: resolving a name must not rescan every
// declaration in scope, nor finding a decoded declaration every decoded
// attribute. A root declaring 20k namespaces with decoded values, then
// holding 20k unprefixed children, must parse about as fast as the same
// document whose attributes declare nothing; a rescan makes it ~4e8
// steps slower.
func TestParseNamespacesLinear(t *testing.T) {
	const n = 20000
	doc := func(attr string) string {
		var b strings.Builder
		b.WriteString("<r")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, ` %s%d="&amp;"`, attr, i)
		}
		b.WriteString(">" + strings.Repeat("<b/>", n) + "</r>")
		return b.String()
	}
	fastest := func(doc string) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := ParseString(doc); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	decls, plain := fastest(doc("xmlns:p")), fastest(doc("plain_p"))
	if decls > 10*plain+50*time.Millisecond {
		t.Errorf("20k declarations and 20k children parse in %v, against %v without declarations", decls, plain)
	}
}

func TestParseEntryPointsAgree(t *testing.T) {
	for name, doc := range seedDocuments(t) {
		s, err := ParseString(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf := []byte(doc)
		b, err := ParseBytes(buf)
		if err != nil {
			t.Fatalf("%s: ParseBytes: %v", name, err)
		}
		r, err := Parse(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: Parse: %v", name, err)
		}
		// A reader without Len, one byte per Read.
		r1, err := Parse(iotest.OneByteReader(strings.NewReader(doc)))
		if err != nil {
			t.Fatalf("%s: Parse by bytes: %v", name, err)
		}
		want := treeString(t, s)
		for i := range buf {
			buf[i] = 'X' // ParseBytes copied its input
		}
		if got := treeString(t, b); got != want {
			t.Errorf("%s: ParseBytes tree differs after the caller reused its buffer", name)
		}
		if got := treeString(t, r); got != want {
			t.Errorf("%s: Parse tree differs from ParseString", name)
		}
		if got := treeString(t, r1); got != want {
			t.Errorf("%s: Parse by bytes tree differs from ParseString", name)
		}
	}
	_, err := Parse(iotest.TimeoutReader(iotest.OneByteReader(strings.NewReader("<a></a>"))))
	if !errors.Is(err, iotest.ErrTimeout) || !strings.HasPrefix(err.Error(), "xmldom: parse: ") {
		t.Errorf("Parse of a failing reader: %v, want a wrapped %v", err, iotest.ErrTimeout)
	}
}

// refText is Text without the fast path.
func refText(n *Node) string {
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func TestTextFastPath(t *testing.T) {
	root, err := ParseString(`<r><one>x</one><none/><mixed>a<b>b</b>c</mixed><nested><i><j>y</j></i></nested>` +
		`<comment><!--c--></comment><split>p<![CDATA[q]]></split><with>t<!--c--></with></r>`)
	if err != nil {
		t.Fatal(err)
	}
	root.Walk(func(n *Node) bool {
		if got, want := n.Text(), refText(n); got != want {
			t.Errorf("%s %q: Text() = %q, want %q", n.Type, n.Name, got, want)
		}
		return true
	})
	one := root.Child("one")
	if allocs := testing.AllocsPerRun(100, func() { _ = one.Text() }); allocs != 0 {
		t.Errorf("Text() of a single text child allocates %.1f times", allocs)
	}
}

var parseSink *Node

// BenchmarkParse parses each testdata document from a byte slice.
func BenchmarkParse(b *testing.B) {
	docs := seedDocuments(b)
	for _, name := range sortedKeys(docs) {
		data := []byte(docs[name])
		b.Run(strings.TrimSuffix(name, ".xml"), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				n, err := ParseBytes(data)
				if err != nil {
					b.Fatal(err)
				}
				parseSink = n
			}
		})
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
