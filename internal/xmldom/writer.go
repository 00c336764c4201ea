package xmldom

import (
	"bytes"
	"encoding/base64"
	"io"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Writer writes one document in canonical form, element by element.
//
// A wire type writes its layout once, as a method taking a *Writer, and
// that one method yields both forms of the document: String and Bytes
// append the canonical XML to a pooled buffer without building any node,
// and Tree builds the node tree the layout describes, for callers that
// walk it (XPath, stores, snapshots).
//
// Canonical form, which (*Node).XML writes through a Writer too:
// attributes in name order; <x/> for an element with no children and
// <x></x> once a text child has been written, even an empty one; '&',
// '<' and '>' escaped in text, and '"' as well in attribute values; no
// whitespace added.
//
// Writes is the third form: it compares what the layout writes with
// given bytes as it is written, building and copying nothing.
//
// Attributes belong to the innermost Start and must come before its
// first child. Names are written as given, unchecked.
type Writer struct {
	mode  writeMode
	buf   []byte
	elems []span        // names of the open elements in the document, innermost last
	attrs []pendingAttr // attributes of the start tag not yet closed
	vals  []byte        // scratch; in tree mode, the formatted values
	inTag bool          // a start tag awaits its '>' or "/>"

	// Writes's state: the document's first off bytes have been compared
	// with want and dropped from buf; diff records a mismatch.
	want []byte
	off  int
	diff bool

	t treeBuild // Tree's state
}

// writeMode selects what a Writer makes of the calls it receives.
type writeMode uint8

const (
	writeBytes   writeMode = iota // canonical XML into buf
	compareBytes                  // canonical XML compared with want, a tag or text at a time
	countTree                     // Tree's first pass: size the slabs
	fillTree                      // Tree's second pass: build the nodes
)

// A span is a run of bytes of the document being written, in Writer.buf
// once Writer.off is taken off. Byte mode keeps positions, not strings,
// so it stores no pointers: no write barriers, and nothing of the
// caller's kept alive by a pooled writer.
type span struct{ start, end int }

// pendingAttr is an attribute of the open start tag, written to buf as
// ` name="value"` at once; closeStart reorders the attributes only when
// they were not given in name order.
type pendingAttr struct {
	start, nameEnd, end int // buf[start+1:nameEnd] is the name
}

// writerPool recycles writers: encoding is the per-message hot path of
// the wsrpc envelope plumbing, so the buffers are worth keeping and only
// the final copy out allocates.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// maxPooledBuf caps the buffer capacity a writer may keep in the pool, so
// one huge document doesn't pin its buffer for the process lifetime.
const maxPooledBuf = 1 << 16

func getWriter() *Writer { return writerPool.Get().(*Writer) }

func (w *Writer) release() {
	if cap(w.buf) > maxPooledBuf || cap(w.vals) > maxPooledBuf ||
		max(cap(w.t.pending), cap(w.t.open), cap(w.t.lens)) > maxPooledBuf/8 {
		return
	}
	w.buf, w.elems, w.attrs, w.vals, w.inTag = w.buf[:0], w.elems[:0], w.attrs[:0], w.vals[:0], false
	writerPool.Put(w)
}

// String returns the canonical XML that encode writes.
func String(encode func(*Writer)) string {
	w := getWriter()
	encode(w)
	s := string(w.buf)
	w.release()
	return s
}

// Bytes returns the canonical XML that encode writes, in one fresh
// slice of exactly that size.
func Bytes(encode func(*Writer)) []byte {
	w := getWriter()
	encode(w)
	b := make([]byte, len(w.buf))
	copy(b, w.buf)
	w.release()
	return b
}

// Writes reports whether encode writes exactly want: String(encode) ==
// string(want), found without building the document. Each tag and text
// is compared with want once it is complete and then dropped, so the
// writer holds no more than the start tag being written, and a
// comparison allocates nothing.
func Writes(want []byte, encode func(*Writer)) bool {
	w := getWriter()
	w.mode, w.want = compareBytes, want
	encode(w)
	w.inTag = false // compare an unclosed start tag as String writes it
	w.flush()
	eq := !w.diff && w.off == len(want)
	w.mode, w.want, w.off, w.diff = writeBytes, nil, 0, false
	w.release()
	return eq
}

// flush, in compare mode, compares the bytes written since the last
// flush with want and drops them from buf. A start tag stays until it
// closes, since closing may reorder its attributes.
func (w *Writer) flush() {
	if w.mode != compareBytes || w.inTag {
		return
	}
	end := w.off + len(w.buf)
	if !w.diff && (end > len(w.want) || !bytes.Equal(w.buf, w.want[w.off:end])) {
		w.diff = true
	}
	w.off = end
	w.buf = w.buf[:0]
}

// written returns the bytes of the document at s: still in buf, or
// dropped by flush after they matched want.
func (w *Writer) written(s span) []byte {
	if s.start >= w.off {
		return w.buf[s.start-w.off : s.end-w.off]
	}
	if w.diff {
		return nil // the document already differs; any name will do
	}
	return w.want[s.start:s.end]
}

// Tree returns the tree that encode writes: one node per Start, Text and
// Comment, attributes in the order given and set as SetAttr sets them.
//
// Tree builds in slabs, as the parser does. It calls encode twice: the
// first call counts nodes, attributes and child pointers and formats
// every number, time and base64 value into one buffer; the second fills
// one slab of each and takes the formatted values from one string, so a
// tree costs about four allocations however large it is. encode must
// write the same document both times, as every encode method of the
// wire types does: each is a pure function of its receiver. A second
// call that writes more than the first panics at the slab it overruns
// rather than build a tree that differs from the document. Child and
// attribute slices are capped, so AppendChild or SetAttr on one node
// reallocates rather than writing into a neighbour.
func Tree(encode func(*Writer)) *Node {
	w := getWriter()
	t := &w.t
	w.mode = countTree
	encode(w)
	t.start(w.vals)
	w.mode = fillTree
	encode(w)
	root := t.root
	t.finish()
	w.mode = writeBytes
	w.release()
	return root
}

// treeBuild is the state of one Tree call. The slabs and the values
// string end up in the returned tree; pending, open and lens are scratch
// that a pooled Writer keeps.
type treeBuild struct {
	nodes, attrs, kids, depth int // counted by the first pass

	nodeSlab []Node
	attrSlab []Attr
	kidSlab  []*Node
	values   string // the formatted values not yet handed out, back to back
	lens     []int  // the length of each formatted value, in order
	next     int    // index in lens of the next value to hand out

	pending []*Node // children of the open elements, innermost last
	open    []int   // for each open element, its first child's index in pending
	root    *Node
	cur     *Node
	attrsOf *Node // the element whose attributes end attrSlab
}

// start sizes the slabs from the counts and turns the formatted values
// into one string.
func (t *treeBuild) start(vals []byte) {
	t.nodeSlab = make([]Node, 0, t.nodes)
	if t.attrs > 0 {
		t.attrSlab = make([]Attr, 0, t.attrs)
	}
	if t.kids > 0 {
		t.kidSlab = make([]*Node, 0, t.kids)
	}
	t.values = string(vals)
}

// finish drops every reference into the tree, so that the pooled Writer
// keeps none of it alive.
func (t *treeBuild) finish() {
	clear(t.pending) // non-empty only if encode left an element open
	*t = treeBuild{pending: t.pending[:0], open: t.open[:0], lens: t.lens[:0]}
}

// count records a node of the first pass.
func (t *treeBuild) count() {
	t.nodes++
	if t.depth > 0 {
		t.kids++
	}
}

// node hands out the next node of the slab and links it under the
// innermost open element, or makes it the root.
func (t *treeBuild) node(typ NodeType, name, data string) *Node {
	t.nodeSlab = t.nodeSlab[:len(t.nodeSlab)+1]
	n := &t.nodeSlab[len(t.nodeSlab)-1]
	n.Type, n.Name, n.Data = typ, name, data
	if t.cur == nil {
		t.root = n
	} else {
		n.Parent = t.cur
		t.pending = append(t.pending, n)
	}
	return n
}

// end closes the innermost open element, moving its children from
// pending into the child-pointer slab.
func (t *treeBuild) end() {
	last := len(t.open) - 1
	first := t.open[last]
	t.open = t.open[:last]
	if kids := t.pending[first:]; len(kids) > 0 {
		at, end := len(t.kidSlab), len(t.kidSlab)+len(kids)
		t.kidSlab = t.kidSlab[:end]
		copy(t.kidSlab[at:], kids)
		t.cur.Children = t.kidSlab[at:end:end]
		clear(kids)
		t.pending = t.pending[:first]
	}
	t.cur = t.cur.Parent
}

// setAttr sets an attribute of the innermost open element as SetAttr
// does, taking the slot from the slab while the element's attributes
// still end it.
func (t *treeBuild) setAttr(name, value string) {
	n := t.cur
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	if t.attrsOf != n { // an attribute after a child element: off the slab
		n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
		return
	}
	end := len(t.attrSlab) + 1
	t.attrSlab = t.attrSlab[:end]
	t.attrSlab[end-1] = Attr{Name: name, Value: value}
	n.Attrs = t.attrSlab[end-len(n.Attrs)-1 : end : end]
}

// format records the value the first pass appended to vals, and
// returns vals with it.
func (t *treeBuild) format(vals, with []byte) []byte {
	t.lens = append(t.lens, len(with)-len(vals))
	return with
}

// value returns the second pass's next formatted value: the one the
// first pass made at the same call.
func (t *treeBuild) value() string {
	n := t.lens[t.next]
	t.next++
	v := t.values[:n]
	t.values = t.values[n:]
	return v
}

// Start opens an element.
func (w *Writer) Start(name string) {
	switch w.mode {
	case countTree:
		w.t.count()
		w.t.depth++
		return
	case fillTree:
		t := &w.t
		t.cur = t.node(ElementNode, name, "")
		t.open = append(t.open, len(t.pending))
		t.attrsOf = t.cur
		return
	}
	w.child()
	w.flush()
	w.buf = append(w.buf, '<')
	at := w.off + len(w.buf)
	w.elems = append(w.elems, span{at, at + len(name)})
	w.buf = append(w.buf, name...)
	w.inTag = true
}

// End closes the innermost open element.
func (w *Writer) End() {
	switch w.mode {
	case countTree:
		w.t.depth--
		return
	case fillTree:
		w.t.end()
		return
	}
	last := len(w.elems) - 1
	name := w.elems[last]
	w.elems = w.elems[:last]
	if w.inTag {
		w.closeStart()
		w.buf = append(w.buf, '/', '>')
	} else {
		w.buf = append(w.buf, '<', '/')
		w.buf = append(w.buf, w.written(name)...)
		w.buf = append(w.buf, '>')
	}
	w.flush()
}

// Tee closes the open start tag, runs encode, which writes children of
// the innermost open element, and then writes what it wrote to dst from
// where it lies in the buffer: a layout that seals part of itself MACs
// that part without a copy. dst is a hash, whose Write never fails.
// Tree's passes only run encode.
func (w *Writer) Tee(dst io.Writer, encode func(*Writer)) {
	if w.mode != writeBytes {
		encode(w)
		return
	}
	w.child()
	from := len(w.buf)
	encode(w)
	dst.Write(w.buf[from:])
}

// Attr sets an attribute of the innermost open element.
func (w *Writer) Attr(name, value string) {
	switch w.mode {
	case countTree:
		w.t.attrs++
		return
	case fillTree:
		w.t.setAttr(name, value)
		return
	}
	w.attrStart(name)
	w.buf = appendEscaped(w.buf, value, true)
	w.attrEnd()
}

// AttrInt sets an attribute to the decimal form of v.
func (w *Writer) AttrInt(name string, v int64) {
	switch w.mode {
	case countTree:
		w.t.attrs++
		w.vals = w.t.format(w.vals, strconv.AppendInt(w.vals, v, 10))
		return
	case fillTree:
		w.t.setAttr(name, w.t.value())
		return
	}
	w.attrStart(name)
	w.buf = strconv.AppendInt(w.buf, v, 10)
	w.attrEnd()
}

// AttrBase64 sets an attribute to the standard base64 encoding of b.
func (w *Writer) AttrBase64(name string, b []byte) {
	switch w.mode {
	case countTree:
		w.t.attrs++
		w.vals = w.t.format(w.vals, base64.StdEncoding.AppendEncode(w.vals, b))
		return
	case fillTree:
		w.t.setAttr(name, w.t.value())
		return
	}
	w.attrStart(name)
	w.buf = base64.StdEncoding.AppendEncode(w.buf, b)
	w.attrEnd()
}

// AttrTime sets an attribute to t formatted with layout.
func (w *Writer) AttrTime(name string, t time.Time, layout string) {
	switch w.mode {
	case countTree:
		w.t.attrs++
		w.vals = w.t.format(w.vals, t.AppendFormat(w.vals, layout))
		return
	case fillTree:
		w.t.setAttr(name, w.t.value())
		return
	}
	w.attrStart(name)
	w.vals = t.AppendFormat(w.vals[:0], layout)
	w.buf = appendEscaped(w.buf, w.vals, true)
	w.attrEnd()
}

func (w *Writer) attrStart(name string) {
	start := len(w.buf)
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, name...)
	w.attrs = append(w.attrs, pendingAttr{start: start, nameEnd: len(w.buf)})
	w.buf = append(w.buf, '=', '"')
}

func (w *Writer) attrEnd() {
	w.buf = append(w.buf, '"')
	w.attrs[len(w.attrs)-1].end = len(w.buf)
}

// Text adds a text child, escaped.
func (w *Writer) Text(s string) {
	switch w.mode {
	case countTree:
		w.t.count()
		return
	case fillTree:
		w.t.node(TextNode, "", s)
		return
	}
	w.child()
	w.buf = appendEscaped(w.buf, s, false)
	w.flush()
}

// TextBase64 adds a text child holding the standard base64 encoding of b
// (an empty text child when b is empty).
func (w *Writer) TextBase64(b []byte) {
	switch w.mode {
	case countTree:
		w.t.count()
		w.vals = w.t.format(w.vals, base64.StdEncoding.AppendEncode(w.vals, b))
		return
	case fillTree:
		w.t.node(TextNode, "", w.t.value())
		return
	}
	w.child()
	w.buf = base64.StdEncoding.AppendEncode(w.buf, b) // nothing in the alphabet needs escaping
	w.flush()
}

// TextTime adds a text child holding t formatted with layout.
func (w *Writer) TextTime(t time.Time, layout string) {
	switch w.mode {
	case countTree:
		w.t.count()
		w.vals = w.t.format(w.vals, t.AppendFormat(w.vals, layout))
		return
	case fillTree:
		w.t.node(TextNode, "", w.t.value())
		return
	}
	w.child()
	w.vals = t.AppendFormat(w.vals[:0], layout)
	w.buf = appendEscaped(w.buf, w.vals, false)
	w.flush()
}

// Comment adds a comment child, written as given.
func (w *Writer) Comment(s string) {
	switch w.mode {
	case countTree:
		w.t.count()
		return
	case fillTree:
		w.t.node(CommentNode, "", s)
		return
	}
	w.child()
	w.buf = append(w.buf, "<!--"...)
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, "-->"...)
	w.flush()
}

// newline starts a line indented by depth levels, for (*Node).Indented.
func (w *Writer) newline(depth int) {
	w.child()
	w.buf = append(w.buf, '\n')
	for range depth {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// child closes a start tag left open, since its element is about to gain
// a child.
func (w *Writer) child() {
	if w.inTag {
		w.closeStart()
		w.buf = append(w.buf, '>')
	}
}

// closeStart puts the attributes of the open start tag in name order.
// They sit at the end of buf, one after another; when they came out of
// order, they are copied aside and written back sorted.
func (w *Writer) closeStart() {
	w.inTag = false
	attrs := w.attrs
	w.attrs = attrs[:0]
	if w.attrsSorted(attrs) {
		return
	}
	base := attrs[0].start
	vals := append(w.vals[:0], w.buf[base:]...)
	name := func(a pendingAttr) []byte { return vals[a.start+1-base : a.nameEnd-base] }
	slices.SortFunc(attrs, func(a, b pendingAttr) int { return bytes.Compare(name(a), name(b)) })
	w.buf = w.buf[:base]
	for _, a := range attrs {
		w.buf = append(w.buf, vals[a.start-base:a.end-base]...)
	}
	w.vals = vals[:0]
}

func (w *Writer) attrsSorted(attrs []pendingAttr) bool {
	for i := 1; i < len(attrs); i++ {
		a, b := attrs[i-1], attrs[i]
		if bytes.Compare(w.buf[b.start+1:b.nameEnd], w.buf[a.start+1:a.nameEnd]) < 0 {
			return false
		}
	}
	return true
}

// appendEscaped appends s with '&', '<' and '>' escaped, and '"' as well
// when s is an attribute value.
func appendEscaped[S string | []byte](dst []byte, s S, attr bool) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			if !attr {
				continue
			}
			esc = "&quot;"
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}
