package xmldom

import (
	"fmt"
	"strings"
	"testing"
)

// tokens renders every token r yields until the end, then closes r.
func tokens(r *Reader) (string, error) {
	var b strings.Builder
	for {
		switch k := r.Next(); k {
		case NoToken:
			return b.String(), r.Close()
		case StartToken:
			fmt.Fprintf(&b, "<%q", r.Name())
			for _, a := range r.Attrs() {
				fmt.Fprintf(&b, " %q=%q", a.Name, a.Value)
			}
			fmt.Fprintf(&b, " @%d>", r.Depth())
		case EndToken:
			fmt.Fprintf(&b, "</%q @%d>", r.Name(), r.Depth())
		case TextToken:
			fmt.Fprintf(&b, "text %q;", r.Data())
		case CommentToken:
			fmt.Fprintf(&b, "comment %q;", r.Data())
		}
	}
}

// FuzzReaderMatchesParse checks the Reader against ParseString, which
// builds its tree from the same scanner: reading the string and walking
// the parsed tree must yield the same tokens, and both must accept or
// both reject. It also reads each document through Child and Text,
// which must give every element's name and string-value as the tree
// does.
func FuzzReaderMatchesParse(f *testing.F) {
	for _, doc := range seedDocuments(f) {
		f.Add(doc)
	}
	for _, doc := range parseSeeds {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		root, perr := ParseString(doc)
		got, err := tokens(NewReader(doc))
		if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
			t.Fatalf("%q: Reader error %v, ParseString error %v", doc, err, perr)
		}
		if perr != nil {
			return
		}
		want, err := tokens(NewNodeReader(root))
		if err != nil {
			t.Fatalf("%q: walking the tree: %v", doc, err)
		}
		if got != want {
			t.Fatalf("%q: tokens differ\nstring: %s\ntree:   %s", doc, got, want)
		}
		if g, w := outline(NewReader(doc)), outline(NewNodeReader(root)); g != w || w != treeOutline(root) {
			t.Fatalf("%q: outlines differ\nstring: %s\ntree:   %s\nnodes:  %s", doc, g, w, treeOutline(root))
		}
	})
}

// outline reads the document through Child, taking the string-value of
// every element without element children and recursing into the rest.
func outline(r *Reader) string {
	var b strings.Builder
	var walk func(d int)
	walk = func(d int) {
		for r.Child(d) {
			b.WriteString(r.Name())
			if r.Depth()%2 == 0 {
				fmt.Fprintf(&b, "=%q;", r.Text())
				continue
			}
			b.WriteString("(")
			walk(d + 1)
			b.WriteString(")")
		}
	}
	walk(0)
	r.Close()
	return b.String()
}

// treeOutline is outline over the nodes.
func treeOutline(root *Node) string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(n.Name)
		if depth%2 == 0 {
			fmt.Fprintf(&b, "=%q;", n.Text())
			return
		}
		b.WriteString("(")
		for _, c := range n.Elements() {
			walk(c, depth+1)
		}
		b.WriteString(")")
	}
	walk(root, 1)
	return b.String()
}

// TestReaderDecodesCompactWithoutAllocating: reading a document as the
// Writer writes it, with names, attributes and text in place, allocates
// nothing.
func TestReaderDecodesCompactWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	doc := `<envelope negotiation="n1" seq="3"><tnMessage type="credential" from="Aircraft">` +
		`<disclosure node="n2"><credential credID="c1" sensitivity="low" type="T">` +
		`<header><credType>T</credType><issuer>I</issuer></header><content><a>1</a><b>2</b></content>` +
		`<signature>AAAA</signature></credential></disclosure><nonce>bm9uY2U=</nonce></tnMessage></envelope>`
	read := func() {
		r := NewReader(doc)
		readSink += readLeaves(r, 0)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if readSink != len("n1")+len("TI12AAAAbm9uY2U=") {
		t.Fatalf("read %d bytes of names and text", readSink)
	}
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("reading a compact document allocates %.1f times", allocs)
	}
}

var readSink int

// readLeaves reads the children of the element at depth d: the text of
// each element without element children, the rest recursively.
func readLeaves(r *Reader, d int) (n int) {
	for r.Child(d) {
		n += len(r.AttrOr("negotiation", ""))
		switch r.Name() {
		case "credType", "issuer", "a", "b", "signature", "nonce":
			n += len(r.Text())
		default:
			n += readLeaves(r, r.Depth())
		}
	}
	return n
}

func TestReaderTextAndNode(t *testing.T) {
	doc := `<r a="x&amp;y"><one>p</one><mixed>a<b>b</b><!--c-->c<![CDATA[<d>]]></mixed>` +
		`<dec>1 &lt; 2</dec><empty/><tree k="&quot;"><i>t</i><j/></tree></r>`
	want, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(doc)
	if !r.Child(0) || r.AttrOr("a", "") != "x&y" {
		t.Fatalf("root %q a=%q", r.Name(), r.AttrOr("a", ""))
	}
	d := r.Depth()
	texts := map[string]string{}
	var tree *Node
	for r.Child(d) {
		if r.Name() == "tree" {
			tree = r.Node()
			continue
		}
		texts[r.Name()] = r.Text()
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for name, got := range texts {
		if w := want.Child(name).Text(); got != w {
			t.Errorf("Text of <%s> = %q, want %q", name, got, w)
		}
	}
	if tree == nil || treeString(t, tree) != treeString(t, want.Child("tree")) || tree.Parent != nil {
		t.Errorf("Node = %v, want %v", tree, want.Child("tree"))
	}
}

// TestReaderSyntaxErrorWins: a decoder that stops early still gets the
// document's syntax error from Close, and a Node cut by one is nil.
func TestReaderSyntaxErrorWins(t *testing.T) {
	for _, doc := range []string{`<a><b/></a><c/>`, `<a><b>x</b>&bogus;</a>`, `<a><b/>`, ``, `  `} {
		r := NewReader(doc)
		r.Child(0)
		_, perr := ParseString(doc)
		if err := r.Close(); err == nil || err.Error() != perr.Error() {
			t.Errorf("%q: Close = %v, want %v", doc, err, perr)
		}
	}
	r := NewReader(`<a><b><c/></a>`)
	r.Child(0)
	r.Child(1)
	if n := r.Node(); n != nil {
		t.Errorf("Node across a syntax error = %v, want nil", n.XML())
	}
	if r.Close() == nil {
		t.Error("no syntax error")
	}
}
