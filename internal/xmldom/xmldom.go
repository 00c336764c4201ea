// Package xmldom provides a small document object model for XML.
//
// The Trust-X stack stores credentials, disclosure policies and ontologies
// as XML documents and evaluates XPath conditions against them (paper §6.2:
// each <certCond> element stores an XPath expression over the counterpart
// credential), and every negotiation message travels as an XML envelope.
// This package reads documents as they arrive, builds the node tree that
// the XPath evaluator (internal/xpath) walks, and writes documents in
// canonical form.
//
// The model is deliberately compact: elements, attributes, text and
// comments. Documents round-trip through Parse and (*Node).XML in
// canonical form — attributes sorted by name, no insignificant
// whitespace — which is also the form that gets signed by internal/pki.
//
// # Writing
//
// There is one serializer, the Writer. (*Node).XML and Indented walk a
// tree into it, and each wire type (credentials, policies, negotiation
// messages, envelopes) writes its layout into it from a single encode
// method: String and Bytes turn that method into canonical bytes in a
// pooled buffer without building any node, and Tree turns the same
// method into the node tree, for code that walks it, built from slabs
// as the parser builds its trees.
//
// # Reading
//
// There is one scanner, the Reader, the Writer's mirror. Each wire type
// reads its layout from it in a single decode method, over the bytes
// received (NewReader), building no tree, or over a tree already built
// (NewNodeReader), from which it yields the tokens the document would
// yield. ParseString builds its trees from the same tokens, so reading
// and parsing accept exactly the same documents. A decoder walks the
// elements it knows with Child, takes a string-value with Text, builds
// a tree only for an element that needs one with Node, and calls Close,
// which reads the rest of the document: a syntax error anywhere wins over
// an error the decoder found in what it read.
//
// What a Reader over bytes returns follows the retention rule below:
// names, attribute values and text are substrings of the input wherever
// nothing had to be decoded, and Node's trees share it as ParseString's
// do. Values that had to be decoded are copied out as they are read.
// Reading a document that needs no decoding, which is what the Writer
// writes, allocates nothing: a Reader and its scratch come from a pool.
//
// # Accepted grammar
//
// The scanner is strict and single-pass. It accepts exactly the
// documents encoding/xml's Decoder.Token accepts in its default strict
// mode, and builds the same tree the earlier encoding/xml-based builder
// did (FuzzParse checks both against that builder):
//
//   - exactly one root element; character data, comments, processing
//     instructions and directives may surround it and are dropped;
//   - element and attribute names follow the XML 1.0 Name production with
//     at most one colon; namespaced names are written in Clark notation,
//     {namespace}local, resolved as encoding/xml resolves them (xmlns
//     declarations stay as attributes, named xmlns or {xmlns}prefix);
//   - attribute values are quoted with ' or " and hold no '<';
//   - the five predefined entities and decimal or hexadecimal character
//     references are decoded; any other entity is an error;
//   - "\r\n" and a lone "\r" become "\n" in text and attribute values;
//   - invalid UTF-8 and characters outside the XML Char production are
//     errors in text, CDATA and attribute values;
//   - whitespace-only text is dropped unless its element already holds
//     non-whitespace text, so indentation vanishes and mixed content stays;
//   - each text run and each CDATA section becomes its own text node (a
//     text token of the Reader);
//   - comments are kept as written and may not contain "--";
//   - processing instructions and <!DOCTYPE ...> directives are skipped;
//     an <?xml ...?> declaration must name version 1.0 and UTF-8, if any.
//
// Parsing runs in time linear in the input, since it runs on unverified
// request bodies: namespace prefixes resolve through a map, as in
// encoding/xml, so a flood of declarations costs no more than as many
// ordinary attributes.
//
// # Retention
//
// A parsed tree shares memory with its input: names, attribute values and
// text are substrings of the parsed string wherever nothing had to be
// decoded, and the nodes, attributes and child lists of one document
// come from a few shared slabs. Holding any one of these strings keeps the
// whole input alive, and holding any node keeps every node of its
// document alive. Before storing a parsed value in a long-lived map or
// cache, copy it: strings.Clone for a string; (*Node).Clone copies a
// subtree's nodes but shares its strings.
//
// A tree from Tree is laid out the same way: its nodes, attributes and
// child lists come from one slab each, and the values Tree formatted
// (numbers, times, base64) are substrings of one string. Holding any
// node of it keeps the whole tree alive; the other strings are the
// encoder's own.
package xmldom

import (
	"fmt"
	"strings"
)

// NodeType discriminates the kinds of nodes in a document tree.
type NodeType int

const (
	// ElementNode is an XML element with a name, attributes and children.
	ElementNode NodeType = iota
	// TextNode holds character data.
	TextNode
	// CommentNode holds an XML comment.
	CommentNode
)

func (t NodeType) String() string {
	switch t {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// Attr is a single name="value" attribute on an element.
type Attr struct {
	Name  string
	Value string
}

// Node is a node in a parsed XML document. The zero value is an empty
// element with no name; use NewElement or Parse to build trees.
type Node struct {
	Type     NodeType
	Name     string // element name (ElementNode only)
	Data     string // character data (TextNode, CommentNode)
	Attrs    []Attr
	Children []*Node
	Parent   *Node
}

// NewElement returns a new element node with the given name.
func NewElement(name string) *Node {
	return &Node{Type: ElementNode, Name: name}
}

// NewText returns a new text node holding data.
func NewText(data string) *Node {
	return &Node{Type: TextNode, Data: data}
}

// AppendChild adds c as the last child of n and sets c.Parent.
// It returns n to permit chaining.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return n
}

// SetAttr sets (or replaces) the named attribute and returns n.
func (n *Node) SetAttr(name, value string) *Node {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return n
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute's value, or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// Text returns the concatenated character data of n and all descendants,
// in document order. This matches the XPath string-value of an element.
func (n *Node) Text() string {
	switch {
	case n.Type == TextNode:
		return n.Data
	case n.Type != ElementNode || len(n.Children) == 0:
		return ""
	case len(n.Children) == 1 && n.Children[0].Type == TextNode:
		return n.Children[0].Data
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	switch n.Type {
	case TextNode:
		b.WriteString(n.Data)
	case ElementNode:
		for _, c := range n.Children {
			c.appendText(b)
		}
	}
}

// Elements returns the element children of n, in document order.
func (n *Node) Elements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// Child returns the first element child named name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Type == ElementNode && c.Name == name {
			return c
		}
	}
	return nil
}

// ChildText returns the string-value of the first element child named
// name, or "" when there is no such child.
func (n *Node) ChildText(name string) string {
	if c := n.Child(name); c != nil {
		return c.Text()
	}
	return ""
}

// Childs returns all element children named name, in document order.
func (n *Node) Childs(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode && c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Walk visits n and every descendant in document order. If fn returns
// false the walk stops.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of n with a nil Parent.
func (n *Node) Clone() *Node {
	cp := &Node{Type: n.Type, Name: n.Name, Data: n.Data}
	if len(n.Attrs) > 0 {
		cp.Attrs = make([]Attr, len(n.Attrs))
		copy(cp.Attrs, n.Attrs)
	}
	for _, c := range n.Children {
		cp.AppendChild(c.Clone())
	}
	return cp
}

// Root returns the topmost ancestor of n (n itself if parentless).
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// XML serializes the subtree rooted at n in canonical form (see Writer):
// attributes sorted by name, text escaped, no added whitespace. The
// output of XML is what internal/pki signs, so two structurally equal
// documents always produce identical bytes.
func (n *Node) XML() string { return String(n.Encode) }

// Encode writes the subtree rooted at n through w, so a tree can be
// written inside another document.
func (n *Node) Encode(w *Writer) {
	switch n.Type {
	case TextNode:
		w.Text(n.Data)
	case CommentNode:
		w.Comment(n.Data)
	case ElementNode:
		w.Start(n.Name)
		for _, a := range n.Attrs {
			w.Attr(a.Name, a.Value)
		}
		for _, c := range n.Children {
			c.Encode(w)
		}
		w.End()
	}
}

// Indented serializes the subtree with two-space indentation, for human
// consumption (the cmd/xtnl formatter and example output). Text content
// is kept inline when an element has only text children.
func (n *Node) Indented() string {
	return String(func(w *Writer) {
		n.writeIndented(w, 0)
		w.newline(0)
	})
}

func (n *Node) writeIndented(w *Writer, depth int) {
	switch n.Type {
	case TextNode:
		w.Text(strings.TrimSpace(n.Data))
	case CommentNode:
		w.Comment(n.Data)
	case ElementNode:
		w.Start(n.Name)
		for _, a := range n.Attrs {
			w.Attr(a.Name, a.Value)
		}
		switch {
		case len(n.Children) == 0:
		case onlyText(n):
			w.Text(n.Text())
		default:
			for _, c := range n.Children {
				w.newline(depth + 1)
				c.writeIndented(w, depth+1)
			}
			w.newline(depth)
		}
		w.End()
	}
}

func onlyText(n *Node) bool {
	for _, c := range n.Children {
		if c.Type != TextNode {
			return false
		}
	}
	return len(n.Children) > 0
}

// Equal reports whether two subtrees are structurally identical:
// same node types, names, attribute sets and (whitespace-trimmed for
// pure-text elements) character data.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.XML() == b.XML()
}
