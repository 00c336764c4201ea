package xmldom

import (
	"bytes"
	"encoding/base64"
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
// Attributes belong to the innermost Start and must come before its
// first child. Names are written as given, unchecked.
type Writer struct {
	buf   []byte
	elems []span        // names of the open elements in buf, innermost last
	attrs []pendingAttr // attributes of the start tag not yet closed
	vals  []byte        // scratch
	inTag bool          // a start tag awaits its '>' or "/>"

	tree bool // build nodes instead of bytes
	root *Node
	cur  *Node
}

// A span is a run of bytes in Writer.buf. Byte mode keeps positions, not
// strings, so it stores no pointers: no write barriers, and nothing of
// the caller's kept alive by a pooled writer.
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
	if cap(w.buf) > maxPooledBuf || cap(w.vals) > maxPooledBuf {
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

// Bytes returns prefix followed by the canonical XML that encode writes,
// in one fresh slice of exactly that size: the shape of signed bytes
// that cover a header and a document.
func Bytes(prefix []byte, encode func(*Writer)) []byte {
	w := getWriter()
	encode(w)
	b := make([]byte, len(prefix)+len(w.buf))
	copy(b[copy(b, prefix):], w.buf)
	w.release()
	return b
}

// Tree returns the tree that encode writes: one node per Start, Text and
// Comment, attributes in the order given and set as SetAttr sets them.
func Tree(encode func(*Writer)) *Node {
	w := getWriter()
	w.tree = true
	encode(w)
	root := w.root
	w.tree, w.root, w.cur = false, nil, nil
	w.release()
	return root
}

// Start opens an element.
func (w *Writer) Start(name string) {
	if w.tree {
		w.cur = w.add(NewElement(name))
		return
	}
	w.child()
	w.buf = append(w.buf, '<')
	w.elems = append(w.elems, span{len(w.buf), len(w.buf) + len(name)})
	w.buf = append(w.buf, name...)
	w.inTag = true
}

// End closes the innermost open element.
func (w *Writer) End() {
	if w.tree {
		w.cur = w.cur.Parent
		return
	}
	last := len(w.elems) - 1
	name := w.elems[last]
	w.elems = w.elems[:last]
	if w.inTag {
		w.closeStart()
		w.buf = append(w.buf, '/', '>')
		return
	}
	w.buf = append(w.buf, '<', '/')
	w.buf = append(w.buf, w.buf[name.start:name.end]...)
	w.buf = append(w.buf, '>')
}

// Attr sets an attribute of the innermost open element.
func (w *Writer) Attr(name, value string) {
	if w.tree {
		w.cur.SetAttr(name, value)
		return
	}
	w.attrStart(name)
	w.buf = appendEscaped(w.buf, value, true)
	w.attrEnd()
}

// AttrInt sets an attribute to the decimal form of v.
func (w *Writer) AttrInt(name string, v int64) {
	if w.tree {
		w.cur.SetAttr(name, strconv.FormatInt(v, 10))
		return
	}
	w.attrStart(name)
	w.buf = strconv.AppendInt(w.buf, v, 10)
	w.attrEnd()
}

// AttrBase64 sets an attribute to the standard base64 encoding of b.
func (w *Writer) AttrBase64(name string, b []byte) {
	if w.tree {
		w.cur.SetAttr(name, base64.StdEncoding.EncodeToString(b))
		return
	}
	w.attrStart(name)
	w.buf = base64.StdEncoding.AppendEncode(w.buf, b)
	w.attrEnd()
}

// AttrTime sets an attribute to t formatted with layout.
func (w *Writer) AttrTime(name string, t time.Time, layout string) {
	if w.tree {
		w.cur.SetAttr(name, t.Format(layout))
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
	if w.tree {
		w.add(NewText(s))
		return
	}
	w.child()
	w.buf = appendEscaped(w.buf, s, false)
}

// TextBase64 adds a text child holding the standard base64 encoding of b
// (an empty text child when b is empty).
func (w *Writer) TextBase64(b []byte) {
	if w.tree {
		w.add(NewText(base64.StdEncoding.EncodeToString(b)))
		return
	}
	w.child()
	w.buf = base64.StdEncoding.AppendEncode(w.buf, b) // nothing in the alphabet needs escaping
}

// TextTime adds a text child holding t formatted with layout.
func (w *Writer) TextTime(t time.Time, layout string) {
	if w.tree {
		w.add(NewText(t.Format(layout)))
		return
	}
	w.child()
	w.vals = t.AppendFormat(w.vals[:0], layout)
	w.buf = appendEscaped(w.buf, w.vals, false)
}

// Comment adds a comment child, written as given.
func (w *Writer) Comment(s string) {
	if w.tree {
		w.add(&Node{Type: CommentNode, Data: s})
		return
	}
	w.child()
	w.buf = append(w.buf, "<!--"...)
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, "-->"...)
}

// newline starts a line indented by depth levels, for (*Node).Indented.
func (w *Writer) newline(depth int) {
	w.child()
	w.buf = append(w.buf, '\n')
	for range depth {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// add links n under the innermost open element, or makes it the root.
func (w *Writer) add(n *Node) *Node {
	if w.cur == nil {
		w.root = n
	} else {
		w.cur.AppendChild(n)
	}
	return n
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
