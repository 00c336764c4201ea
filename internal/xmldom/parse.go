package xmldom

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// ErrNoRoot is returned by Parse when the input holds no root element.
var ErrNoRoot = errors.New("xmldom: document has no root element")

// Parse reads r to EOF and parses the XML document it holds, returning
// the root element. The input is read into one string, which the tree
// then shares as it would share ParseString's input. To bound the input,
// pass an io.LimitReader: a cut-off document fails to parse.
func Parse(r io.Reader) (*Node, error) {
	p := readerPool.Get().(*Reader)
	var b strings.Builder // sized by its first Write, then doubling
	for {
		n, err := r.Read(p.buf[:])
		b.Write(p.buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			readerPool.Put(p)
			return nil, fmt.Errorf("xmldom: parse: %w", err)
		}
	}
	return p.parse(b.String())
}

// ParseBytes parses the XML document in b. It copies b once, so the
// caller may reuse b as soon as ParseBytes returns.
func ParseBytes(b []byte) (*Node, error) {
	return ParseString(string(b))
}

// ParseString parses the XML document in s and returns its root element.
// It does not copy s: see the package comment for the retention rule.
// The tree is built from the tokens a Reader reads from s.
func ParseString(s string) (*Node, error) {
	return readerPool.Get().(*Reader).parse(s)
}

// parse builds the tree of s from p's tokens and returns p to the pool.
func (p *Reader) parse(s string) (*Node, error) {
	p.reset(s)
	b := &p.b
	b.begin(s, 0)
	p.build = b
	for p.Next() != NoToken {
		b.token(p)
	}
	root, err := b.finish(p), p.err
	p.release()
	if err != nil {
		return nil, err
	}
	return root, nil
}

// TokenKind is the kind of the token a Reader has read.
type TokenKind uint8

const (
	// NoToken: the document has ended, or a syntax error stopped it.
	NoToken TokenKind = iota
	// StartToken is an element's start tag: Name and Attrs.
	StartToken
	// EndToken is an element's end tag, or the end of a self-closing
	// start tag: Name.
	EndToken
	// TextToken is a run of character data or a CDATA section: Data.
	TextToken
	// CommentToken is a comment inside the root element: Data.
	CommentToken
)

// Reader reads an XML document token by token, the decoding mirror of
// Writer: each wire type reads its layout from it in one decode method,
// and that one method decodes both forms of a document. NewReader reads
// the bytes received, building no tree; NewNodeReader walks a tree
// already built, yielding the tokens its document would yield.
//
// Over a string, the Reader is the package's scanner: ParseString builds
// its tree from the same tokens, so both accept exactly the same
// documents (see "Accepted grammar"). Whitespace-only text that a parse
// drops yields no token; text outside the root element, processing
// instructions and directives yield none either. A start tag that closes
// itself is followed by its end token.
//
// Names, attribute values and text are substrings of the input wherever
// nothing had to be decoded, under the retention rule of ParseString;
// decoded values are copied out as they are read. Reading a document
// that needs no decoding, which is what the Writer writes, allocates
// nothing: the Reader's scratch comes from a pool, and Close returns it.
//
// A syntax error stops the Reader: Next returns NoToken from then on and
// Err reports the error. Decoders read what they need and then call
// Close, which reads the rest of the document, so a syntax error anywhere
// wins over an error the decoder found in what it read.
type Reader struct {
	s   string
	pos int
	err error

	// The current token.
	kind    TokenKind
	name    string
	data    string
	off     int       // decoded data runs from arena[off:end], when off >= 0
	end     int       //
	attrs   []Attr    // the start tag's attributes: scratch, or the node's own
	attrFix []attrFix // decoded values among attrs, while a tree is built
	tag     int       // offset of the current start tag
	closing bool      // the start tag closed itself: its end token is next

	open []frame // elements whose end token has not been read yet
	root bool    // the root element has started

	// ns maps each prefix in scope to its namespace, the default
	// namespace under "". nsUndo records, for every declaration of the
	// open elements, the binding it shadowed, innermost last, so that
	// closing an element restores its parent's scope.
	ns     map[string]string
	nsUndo []binding

	// Text and attribute values that had to be rewritten (references,
	// carriage returns) are decoded into arena. While build is set they
	// stay there until the tree is done and one string copy backs them
	// all; otherwise each is copied out as it is read.
	arena []byte
	build *treeBuilder

	scratch []Attr // the attributes of the current start tag

	// A Reader over a tree walks it: the element whose start token is
	// next, then one frame per open element.
	tree  bool
	first *Node
	walk  []walkFrame

	b   treeBuilder // the state of a tree built from the tokens
	buf [4096]byte  // Parse reads its input through buf
}

type frame struct {
	raw     string // the tag name as written, matched against the end tag
	name    string // the element's name, for its end token
	ns      int    // len(nsUndo) before the element's own declarations
	hasText bool   // a text token with non-whitespace content was read
}

type walkFrame struct {
	n    *Node
	next int // index in n.Children of the next child to visit
}

// binding is a prefix's namespace before a declaration shadowed it;
// bound is false when the prefix had none.
type binding struct {
	prefix, url string
	bound       bool
}

// attrFix marks the i-th attribute of the current tag as decoded into
// arena[off:end].
type attrFix struct{ i, off, end int }

var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// maxPooledScratch caps the scratch capacity a pooled Reader keeps, so
// one huge document does not pin its scratch for the process lifetime.
const maxPooledScratch = 1 << 12

// NewReader returns a Reader over the document in s, from a pool: call
// Close (or Release) when done. It does not copy s.
func NewReader(s string) *Reader {
	r := readerPool.Get().(*Reader)
	r.reset(s)
	return r
}

// NewNodeReader returns a Reader that walks the tree rooted at n as the
// document whose root element n is, from a pool: call Close when done.
// Its strings are the tree's own.
func NewNodeReader(n *Node) *Reader {
	r := readerPool.Get().(*Reader)
	r.reset("")
	r.tree = true
	if n != nil && n.Type == ElementNode {
		r.first = n
	}
	return r
}

func (p *Reader) reset(s string) {
	p.s, p.pos, p.err = s, 0, nil
	p.kind, p.closing, p.root, p.tree = NoToken, false, false, false
	p.arena = p.arena[:0]
}

// Close reads the rest of the document, returns the Reader to its pool
// and returns the first syntax error in the document: ErrNoRoot when it
// holds no root element. A Reader over a tree reports none. The Reader
// must not be used after Close.
func (p *Reader) Close() error {
	for p.Next() != NoToken {
	}
	err := p.err
	p.release()
	return err
}

// Release returns the Reader to its pool without reading the rest of
// the document, for a caller that needs only what it has read so far.
// The Reader must not be used after Release.
func (p *Reader) Release() { p.release() }

// Err returns the syntax error that stopped the Reader, if any.
func (p *Reader) Err() error { return p.err }

// release drops every reference into the input and any tree, so that a
// pooled Reader pins neither, and returns p to the pool.
func (p *Reader) release() {
	p.s, p.name, p.data, p.err = "", "", "", nil
	p.attrs, p.build, p.first = nil, nil, nil
	clear(p.scratch[:cap(p.scratch)])
	clear(p.open[:cap(p.open)])
	clear(p.nsUndo[:cap(p.nsUndo)])
	clear(p.walk[:cap(p.walk)])
	p.scratch, p.open, p.nsUndo, p.walk = p.scratch[:0], p.open[:0], p.nsUndo[:0], p.walk[:0]
	p.b.clear()
	// The map never holds more prefixes than nsUndo has had entries, so
	// its buckets are as bounded as nsUndo's capacity.
	if max(cap(p.open), cap(p.nsUndo), cap(p.walk), cap(p.scratch), cap(p.attrFix), p.b.scratchCap()) > maxPooledScratch {
		p.scratch, p.open, p.nsUndo, p.walk, p.attrFix, p.ns = nil, nil, nil, nil, nil, nil
		p.b = treeBuilder{}
	}
	clear(p.ns)
	if cap(p.arena) > maxPooledScratch {
		p.arena = nil
	}
	readerPool.Put(p)
}

// syntaxError reports msg at the line holding byte offset pos.
func (p *Reader) syntaxError(pos int, msg string) error {
	if pos > len(p.s) {
		pos = len(p.s)
	}
	line := 1 + strings.Count(p.s[:pos], "\n")
	return fmt.Errorf("xmldom: parse: line %d: %s", line, msg)
}

func (p *Reader) eof() error { return p.syntaxError(len(p.s), "unexpected EOF") }

// Next reads the next token and returns its kind: markup and character
// data in any order, exactly one root element, and nothing left open at
// the end. It returns NoToken at the end of the document and on a syntax
// error, which Err then reports.
func (p *Reader) Next() TokenKind {
	if p.tree {
		return p.walkNext()
	}
	if p.closing {
		p.closing = false
		p.closeElement()
		return EndToken
	}
	if p.build == nil {
		p.arena = p.arena[:0] // the last token's decoded data is copied out
	}
	s := p.s
	for p.err == nil && p.pos < len(s) {
		var tok bool
		var err error
		if s[p.pos] != '<' {
			tok, err = p.charData()
		} else if p.pos+1 >= len(s) {
			err = p.eof()
		} else {
			switch s[p.pos+1] {
			case '/':
				tok, err = true, p.endTag()
			case '?':
				err = p.procInst()
			case '!':
				tok, err = p.bang()
			default:
				tok, err = true, p.startTag()
			}
		}
		if err != nil {
			p.err = err
			break
		}
		if tok {
			return p.kind
		}
	}
	if p.err == nil {
		if len(p.open) > 0 {
			p.err = p.eof()
		} else if !p.root {
			p.err = ErrNoRoot
		}
	}
	p.kind = NoToken
	return NoToken
}

// charData handles a text run, which ends at the next '<' or at EOF.
func (p *Reader) charData() (bool, error) {
	start := p.pos
	end := strings.IndexByte(p.s[start:], '<')
	if end < 0 {
		end = len(p.s)
	} else {
		end += start
	}
	p.pos = end
	text, off, err := p.decode(start, end, modeText)
	if err != nil {
		return false, err
	}
	return p.text(text, off), nil
}

// text makes character data a text token: text itself, or when off >= 0
// the decoded bytes arena[off:]. Whitespace-only data yields no token
// unless the open element already holds non-whitespace text:
// indentation between elements then vanishes, so pretty-printed and
// compact documents read the same, while mixed content keeps its
// spacing. Data outside the root element yields no token.
func (p *Reader) text(text string, off int) bool {
	var blank bool
	if off < 0 {
		blank = strings.TrimSpace(text) == ""
	} else {
		blank = len(bytes.TrimSpace(p.arena[off:])) == 0
	}
	if len(p.open) == 0 || blank && !p.open[len(p.open)-1].hasText {
		if off >= 0 {
			p.arena = p.arena[:off]
		}
		return false
	}
	if !blank {
		p.open[len(p.open)-1].hasText = true
	}
	p.kind, p.data, p.off, p.end = TextToken, text, off, len(p.arena)
	return true
}

// treeBuilder builds a tree from a Reader's tokens: ParseString's whole
// document, or one element for Reader.Node. Nodes, attributes and child
// pointers each come from one slab, sized by counting the input's markup;
// pending, stack and fixups are scratch a pooled Reader keeps.
type treeBuilder struct {
	nodes []Node  // node slab
	attrs []Attr  // attribute slab
	kids  []*Node // child-pointer slab
	chunk int     // size of the next node or child-pointer chunk

	root    *Node
	stack   []buildFrame // the open elements, innermost last
	pending []*Node      // children of the open elements, innermost last
	fixups  []fixup      // tree strings that await the arena's copy
	base    int          // arena offset of the first decoded value
}

type buildFrame struct {
	el   *Node
	kids int // index in pending of the element's first child
}

// fixup points a tree string at arena[off:end] once the arena is copied.
type fixup struct {
	dst      *string
	off, end int
}

// begin sizes the slabs for the markup in s. Mixed content beyond the
// count takes one more chunk. Every attribute has its own '='.
func (b *treeBuilder) begin(s string, arena int) {
	b.base = arena
	b.chunk = nodeSlots(s)
	b.nodes = make([]Node, 0, b.chunk)
	if n := strings.Count(s, "="); n > 0 {
		b.attrs = make([]Attr, 0, n)
	}
}

// token adds the Reader's current token to the tree.
func (b *treeBuilder) token(p *Reader) {
	switch p.kind {
	case StartToken:
		el := b.newNode()
		el.Type, el.Name = ElementNode, p.name
		if n := len(p.attrs); n > 0 {
			if cap(b.attrs)-len(b.attrs) < n {
				b.attrs = make([]Attr, 0, n)
			}
			a := len(b.attrs)
			b.attrs = append(b.attrs, p.attrs...)
			el.Attrs = b.attrs[a:len(b.attrs):len(b.attrs)]
			for _, f := range p.attrFix {
				b.fixups = append(b.fixups, fixup{&el.Attrs[f.i].Value, f.off, f.end})
			}
		}
		if len(b.stack) == 0 {
			b.root = el
		} else {
			b.child(el)
		}
		b.stack = append(b.stack, buildFrame{el: el, kids: len(b.pending)})
	case EndToken:
		b.closeElement()
	case TextToken, CommentToken:
		n := b.newNode()
		n.Type, n.Data = TextNode, p.data
		if p.kind == CommentToken {
			n.Type = CommentNode
		}
		if p.off >= 0 {
			b.fixups = append(b.fixups, fixup{&n.Data, p.off, p.end})
		}
		b.child(n)
	}
}

// newNode hands out the next node of the slab.
func (b *treeBuilder) newNode() *Node {
	if len(b.nodes) == cap(b.nodes) {
		b.nodes = make([]Node, 0, b.chunk)
	}
	b.nodes = b.nodes[:len(b.nodes)+1]
	return &b.nodes[len(b.nodes)-1]
}

// child makes n a child of the innermost open element.
func (b *treeBuilder) child(n *Node) {
	n.Parent = b.stack[len(b.stack)-1].el
	b.pending = append(b.pending, n)
}

// closeElement moves the innermost open element's children from the
// pending stack into the child-pointer slab and pops the element. Each
// Children slice is capped at its length, so a later AppendChild
// reallocates instead of overwriting the next element's children.
func (b *treeBuilder) closeElement() {
	f := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	if k := len(b.pending) - f.kids; k > 0 {
		if cap(b.kids)-len(b.kids) < k {
			b.kids = make([]*Node, 0, max(k, b.chunk))
		}
		a := len(b.kids)
		b.kids = append(b.kids, b.pending[f.kids:]...)
		f.el.Children = b.kids[a:len(b.kids):len(b.kids)]
		clear(b.pending[f.kids:])
		b.pending = b.pending[:f.kids]
	}
}

// finish points every decoded value at its run of one string copy of
// the arena and returns the tree, or nil when the Reader stopped on a
// syntax error.
func (b *treeBuilder) finish(p *Reader) *Node {
	root := b.root
	if p.err != nil {
		root = nil
	} else if len(b.fixups) > 0 {
		decoded := string(p.arena[b.base:])
		for _, f := range b.fixups {
			*f.dst = decoded[f.off-b.base : f.end-b.base]
		}
	}
	b.clear()
	return root
}

// clear drops every reference into the tree built last.
func (b *treeBuilder) clear() {
	clear(b.stack[:cap(b.stack)])
	clear(b.pending[:cap(b.pending)])
	clear(b.fixups[:cap(b.fixups)])
	b.stack, b.pending, b.fixups = b.stack[:0], b.pending[:0], b.fixups[:0]
	b.nodes, b.attrs, b.kids, b.root = nil, nil, nil, nil
}

func (b *treeBuilder) scratchCap() int {
	return max(cap(b.stack), cap(b.pending), cap(b.fixups))
}

// nodeSlots sizes the node slab of a parse of s. It visits each '<'
// once: one that opens an element, a comment or a CDATA section takes a
// slot, and so does a text run before a '<', unless the run is all
// white space or follows the '>' of markup. The count is capped at the
// number of '<' plus one. It is exact for compact documents, which is
// what the Writer writes (it escapes '<' and '>' in text and attribute
// values); elsewhere it may take more slots than nodes, and whitespace
// that mixed content keeps takes the fallback chunk.
func nodeSlots(s string) int {
	n, lts := 0, 0
	for i := strings.IndexByte(s, '<'); i >= 0; {
		lts++
		if i+1 < len(s) && s[i+1] != '/' && s[i+1] != '?' {
			n++ // an element, a comment or a CDATA section (or a directive)
		}
		next := strings.IndexByte(s[i+1:], '<')
		if next < 0 {
			break // text after the last markup lies outside the root
		}
		next += i + 1
		if s[next-1] != '>' {
			text := s[i:next]
			if gt := strings.LastIndexByte(text, '>'); gt >= 0 && !blank(text[gt+1:]) {
				n++
			}
		}
		i = next
	}
	return min(n, lts+1)
}

// blank reports whether s holds nothing but XML white space.
func blank(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}

// Decoding modes: ordinary text, a quoted attribute value, and the body
// of a CDATA section (no entities, "]]>" already cut off).
const (
	modeText = iota
	modeAttr
	modeCDATA
)

// decode validates s[start:end] as character data and returns its value:
// the substring itself, with off = -1, unless the data holds an entity
// or character reference (modeText, modeAttr) or a carriage return,
// which becomes a line feed ("\r\n" collapses to one). Then the decoded
// value is appended to the arena, where it runs from off to the end.
// Invalid UTF-8, a character outside the XML Char production, an
// undefined or malformed entity, and "]]>" in ordinary text are errors.
func (p *Reader) decode(start, end, mode int) (s string, off int, err error) {
	raw := p.s[start:end]
	off = -1
	for i := 0; i < len(raw); {
		c, size := raw[i], 1
		switch {
		case c >= utf8.RuneSelf:
			var r rune
			r, size = utf8.DecodeRuneInString(raw[i:])
			if r == utf8.RuneError && size == 1 {
				return "", 0, p.syntaxError(start+i, "invalid UTF-8")
			}
			if !isChar(r) {
				return "", 0, p.syntaxError(start+i, fmt.Sprintf("illegal character code %U", r))
			}
		case c == '&' && mode != modeCDATA, c == '\r':
			if off < 0 {
				off = len(p.arena)
				p.arena = append(p.arena, raw[:i]...)
			}
			if c == '\r' {
				p.arena = append(p.arena, '\n')
				i++
				continue
			}
			r, n := reference(raw[i:])
			if n == 0 {
				return "", 0, p.syntaxError(start+i, "invalid character entity "+entityText(raw[i:]))
			}
			if !isChar(r) {
				return "", 0, p.syntaxError(start+i, fmt.Sprintf("illegal character code %U", r))
			}
			p.arena = utf8.AppendRune(p.arena, r)
			i += n
			continue
		case c == '\n' && i > 0 && raw[i-1] == '\r':
			i++ // the '\r' before it already became a line feed
			continue
		case c == ']' && mode == modeText && strings.HasPrefix(raw[i:], "]]>"):
			return "", 0, p.syntaxError(start+i, "unescaped ]]> not in CDATA section")
		case c < 0x20 && c != '\t' && c != '\n':
			return "", 0, p.syntaxError(start+i, fmt.Sprintf("illegal character code %U", rune(c)))
		}
		if off >= 0 {
			p.arena = append(p.arena, raw[i:i+size]...)
		}
		i += size
	}
	if off >= 0 {
		return "", off, nil
	}
	return raw, -1, nil
}

// reference decodes the entity or character reference at the start of s
// (which begins with '&'). It returns the character and the reference's
// length, or n == 0 when the reference is malformed, out of range, or
// names an entity other than the five XML predefines. A character
// reference to a surrogate decodes to U+FFFD, as string(rune(n)) does.
func reference(s string) (r rune, n int) {
	if len(s) > 1 && s[1] == '#' {
		i, base := 2, 10
		if i < len(s) && s[i] == 'x' {
			i, base = 3, 16
		}
		digits := i
		for i < len(s) && isDigit(s[i], base) {
			i++
		}
		if i == len(s) || s[i] != ';' {
			return 0, 0
		}
		v, err := strconv.ParseUint(s[digits:i], base, 64)
		if err != nil || v > unicode.MaxRune {
			return 0, 0
		}
		r = rune(v)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError
		}
		return r, i + 1
	}
	for _, e := range predefined {
		if strings.HasPrefix(s[1:], e.name) {
			return e.r, 1 + len(e.name)
		}
	}
	return 0, 0
}

var predefined = [...]struct {
	name string
	r    rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

func isDigit(c byte, base int) bool {
	return '0' <= c && c <= '9' || base == 16 && ('a' <= c && c <= 'f' || 'A' <= c && c <= 'F')
}

// entityText is the malformed reference at the start of s, for errors.
func entityText(s string) string {
	if i := strings.IndexByte(s, ';'); i > 0 && i < 16 {
		return s[:i+1]
	}
	if len(s) > 16 {
		s = s[:16]
	}
	return s + " (no semicolon)"
}

// TextRoundTrips reports whether a text child holding s parses back as
// written: s is valid UTF-8 made of XML characters, holds no carriage
// return, which parsing turns into a line feed, and is empty or more
// than white space, which parsing drops.
func TextRoundTrips(s string) bool {
	return s == "" || AttrRoundTrips(s) && strings.TrimSpace(s) != ""
}

// AttrRoundTrips reports whether an attribute value s parses back as
// written: valid UTF-8 made of XML characters, with no carriage return.
func AttrRoundTrips(s string) bool {
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
		}
		if r == '\r' || !isChar(r) {
			return false
		}
		i += size
	}
	return true
}

// isChar reports whether r is in the XML Char production.
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// space skips XML white space.
func (p *Reader) space() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// nameByte marks the ASCII bytes that may appear in a name; every byte
// from 0x80 up is taken into the name and its rune checked afterwards.
var nameByte = func() (t [utf8.RuneSelf]bool) {
	for c := 0; c < utf8.RuneSelf; c++ {
		t[c] = 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-'
	}
	return t
}()

// readName reads a name at p.pos. It fails when no name starts there or
// when the name's first character is not a name-start character.
func (p *Reader) readName() (string, bool) {
	s, start := p.s, p.pos
	i := start
	for i < len(s) && (s[i] >= utf8.RuneSelf || nameByte[s[i]]) {
		i++
	}
	if i == start {
		return "", false
	}
	if i == len(s) {
		p.pos = i
		return "", false // a name runs up to the end of the document
	}
	n := s[start:i]
	if !isName(n) {
		return "", false
	}
	p.pos = i
	return n, true
}

// qualifiedName reads an element or attribute name, which may carry at
// most one colon.
func (p *Reader) qualifiedName() (string, bool) {
	n, ok := p.readName()
	if !ok || strings.Count(n, ":") > 1 {
		return "", false
	}
	return n, true
}

func isName(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if i == 0 && ('0' <= c && c <= '9' || c == '.' || c == '-') {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			return false
		}
		if !unicode.Is(nameStartTable, r) && (i == 0 || !unicode.Is(nameCharTable, r)) {
			return false
		}
		i += size
	}
	return true
}

// splitName splits a qualified name at its colon. A name with an empty
// prefix or local part ("a:", ":a") has no prefix.
func splitName(n string) (prefix, local string) {
	if i := strings.IndexByte(n, ':'); i > 0 && i < len(n)-1 {
		return n[:i], n[i+1:]
	}
	return "", n
}

const xmlURL = "http://www.w3.org/XML/1998/namespace"

// clarkName resolves a qualified name against the declarations in scope
// and writes it in Clark notation, {namespace}local, or as local alone
// when no namespace applies. As in encoding/xml: the default namespace
// applies to elements only and never to an element named xmlns; the xml
// prefix always means the XML namespace; the xmlns prefix is kept as the
// namespace itself; an undeclared prefix stands for its own namespace.
func (p *Reader) clarkName(n string, element bool) string {
	prefix, local := splitName(n)
	space := prefix
	switch {
	case prefix == "xmlns":
	case prefix == "" && (!element || local == "xmlns"):
	case prefix == "xml":
		space = xmlURL
	default:
		if url, ok := p.ns[prefix]; ok {
			space = url
		}
	}
	if space == "" {
		return local
	}
	return "{" + space + "}" + local
}

// declare binds prefix to url until the current element closes.
func (p *Reader) declare(prefix, url string) {
	if p.ns == nil {
		p.ns = make(map[string]string)
	}
	prev, bound := p.ns[prefix]
	p.nsUndo = append(p.nsUndo, binding{prefix, prev, bound})
	p.ns[prefix] = url
}

// startTag reads <name attr="value" ...> or the self-closing form.
func (p *Reader) startTag() error {
	s := p.s
	tag := p.pos
	p.pos++ // '<'
	raw, ok := p.qualifiedName()
	if !ok {
		return p.syntaxError(p.pos, "expected element name after <")
	}
	attrs := p.scratch[:0]
	p.attrFix = p.attrFix[:0]
	empty := false
	for {
		p.space()
		if p.pos >= len(s) {
			return p.eof()
		}
		if c := s[p.pos]; c == '>' {
			p.pos++
			break
		} else if c == '/' {
			if p.pos+1 >= len(s) || s[p.pos+1] != '>' {
				return p.syntaxError(p.pos, "expected /> in element")
			}
			p.pos += 2
			empty = true
			break
		}
		name, ok := p.qualifiedName()
		if !ok {
			return p.syntaxError(p.pos, "expected attribute name in element")
		}
		p.space()
		if p.pos >= len(s) || s[p.pos] != '=' {
			return p.syntaxError(p.pos, "attribute name without = in element")
		}
		p.pos++
		p.space()
		if p.pos >= len(s) || s[p.pos] != '"' && s[p.pos] != '\'' {
			return p.syntaxError(p.pos, "unquoted or missing attribute value in element")
		}
		q := s[p.pos]
		start := p.pos + 1
		end := strings.IndexByte(s[start:], q)
		if end < 0 {
			return p.eof()
		}
		end += start
		if i := strings.IndexByte(s[start:end], '<'); i >= 0 {
			return p.syntaxError(start+i, "unescaped < inside quoted string")
		}
		value, off, err := p.decode(start, end, modeAttr)
		if err != nil {
			return err
		}
		p.pos = end + 1
		if off >= 0 {
			p.attrFix = append(p.attrFix, attrFix{len(attrs), off, len(p.arena)})
		}
		attrs = append(attrs, Attr{Name: name, Value: value})
	}
	p.scratch = attrs

	nsMark := len(p.nsUndo)
	// Declarations on the element apply to its own name and attributes.
	// attrFix is in attribute order, so one cursor finds decoded values.
	fix := p.attrFix
	for i, a := range attrs {
		prefix, local := splitName(a.Name)
		switch {
		case prefix == "xmlns":
		case a.Name == "xmlns":
			local = ""
		default:
			continue
		}
		url := a.Value
		for len(fix) > 0 && fix[0].i < i {
			fix = fix[1:]
		}
		if len(fix) > 0 && fix[0].i == i {
			url = string(p.arena[fix[0].off:fix[0].end]) // needed now, not after the parse
		}
		p.declare(local, url)
	}
	name := p.clarkName(raw, true)
	for i := range attrs {
		if strings.IndexByte(attrs[i].Name, ':') >= 0 {
			attrs[i].Name = p.clarkName(attrs[i].Name, false)
		}
	}
	if p.build == nil {
		for _, f := range p.attrFix {
			attrs[f.i].Value = string(p.arena[f.off:f.end])
		}
		p.attrFix = p.attrFix[:0]
	}
	if len(p.open) == 0 {
		if p.root {
			return p.syntaxError(p.pos, "multiple root elements")
		}
		p.root = true
	}
	p.open = append(p.open, frame{raw: raw, name: name, ns: nsMark})
	p.kind, p.name, p.attrs, p.closing, p.tag = StartToken, name, attrs, empty, tag
	return nil
}

// endTag reads </name>, which must close the innermost open element with
// the same name as written.
func (p *Reader) endTag() error {
	s := p.s
	p.pos += 2 // "</"
	raw, ok := p.qualifiedName()
	if !ok {
		return p.syntaxError(p.pos, "expected element name after </")
	}
	p.space()
	if p.pos >= len(s) {
		return p.eof()
	}
	if s[p.pos] != '>' {
		return p.syntaxError(p.pos, "invalid characters between </"+raw+" and >")
	}
	p.pos++
	if len(p.open) == 0 {
		return p.syntaxError(p.pos, "unexpected end element </"+raw+">")
	}
	if f := &p.open[len(p.open)-1]; f.raw != raw {
		return p.syntaxError(p.pos, "element <"+f.raw+"> closed by </"+raw+">")
	}
	p.closeElement()
	return nil
}

// closeElement pops the innermost open element as the current end token,
// restoring the bindings its namespace declarations shadowed.
func (p *Reader) closeElement() {
	f := p.open[len(p.open)-1]
	p.open = p.open[:len(p.open)-1]
	p.kind, p.name = EndToken, f.name
	for i := len(p.nsUndo) - 1; i >= f.ns; i-- {
		if b := p.nsUndo[i]; b.bound {
			p.ns[b.prefix] = b.url
		} else {
			delete(p.ns, b.prefix)
		}
	}
	clear(p.nsUndo[f.ns:])
	p.nsUndo = p.nsUndo[:f.ns]
}

// procInst skips a processing instruction. An XML declaration must name
// version 1.0 and the UTF-8 encoding, or none.
func (p *Reader) procInst() error {
	p.pos += 2 // "<?"
	target, ok := p.readName()
	if !ok {
		return p.syntaxError(p.pos, "expected target name after <?")
	}
	p.space()
	end := strings.Index(p.s[p.pos:], "?>")
	if end < 0 {
		return p.eof()
	}
	data := p.s[p.pos : p.pos+end]
	p.pos += end + 2
	if target == "xml" {
		if v := pseudoAttr("version", data); v != "" && v != "1.0" {
			return fmt.Errorf("xmldom: parse: unsupported XML version %q", v)
		}
		if enc := pseudoAttr("encoding", data); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return fmt.Errorf("xmldom: parse: unsupported encoding %q", enc)
		}
	}
	return nil
}

// pseudoAttr returns the quoted value of param="..." or param='...' in
// the body of an XML declaration, or "" when there is none. Like
// encoding/xml it takes the first occurrence followed by a quote.
func pseudoAttr(param, s string) string {
	param += "="
	var sep byte
	i := 0
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang handles markup opening with "<!": a comment, a CDATA section or a
// directive such as <!DOCTYPE ...>. It reports whether the markup is a
// token.
func (p *Reader) bang() (bool, error) {
	s := p.s
	if p.pos+2 >= len(s) {
		return false, p.eof()
	}
	switch s[p.pos+2] {
	case '-':
		return p.comment()
	case '[':
		return p.cdata()
	}
	return false, p.directive()
}

// comment reads <!--...-->; "--" may only appear as its terminator.
// Comment data is kept as written.
func (p *Reader) comment() (bool, error) {
	s := p.s
	if p.pos+3 >= len(s) {
		return false, p.eof()
	}
	if s[p.pos+3] != '-' {
		return false, p.syntaxError(p.pos, "invalid sequence <!- not part of <!--")
	}
	start := p.pos + 4
	end := strings.Index(s[start:], "--")
	if end < 0 {
		return false, p.eof()
	}
	end += start
	if end+2 >= len(s) {
		return false, p.eof()
	}
	if s[end+2] != '>' {
		return false, p.syntaxError(end, `invalid sequence "--" not allowed in comments`)
	}
	p.pos = end + 3
	if len(p.open) == 0 {
		return false, nil
	}
	p.kind, p.data, p.off = CommentToken, s[start:end], -1
	return true, nil
}

// cdata reads <![CDATA[...]]>, which becomes character data of its own.
func (p *Reader) cdata() (bool, error) {
	s := p.s
	const open = "<![CDATA["
	for i := 3; i < len(open); i++ {
		if p.pos+i >= len(s) {
			return false, p.eof()
		}
		if s[p.pos+i] != open[i] {
			return false, p.syntaxError(p.pos, "invalid <![ sequence")
		}
	}
	start := p.pos + len(open)
	end := strings.Index(s[start:], "]]>")
	if end < 0 {
		return false, p.syntaxError(len(s), "unexpected EOF in CDATA section")
	}
	end += start
	p.pos = end + 3
	text, off, err := p.decode(start, end, modeCDATA)
	if err != nil {
		return false, err
	}
	return p.text(text, off), nil
}

// directive skips <!...> markup such as <!DOCTYPE ...>, following the
// nesting rules of encoding/xml: the first byte after "<!" is taken as
// is; after it, quotes hide angle brackets, a nested '<' opens a level
// that a '>' closes, and a nested <!--...--> comment is skipped whole.
func (p *Reader) directive() error {
	s := p.s
	i := p.pos + 3 // "<!" and the first byte
	var quote byte
	depth := 0
	for {
		if i >= len(s) {
			return p.eof()
		}
		b := s[i]
		i++
		if quote == 0 && b == '>' && depth == 0 {
			break
		}
	handle:
		switch {
		case b == quote:
			quote = 0
		case quote != 0:
		case b == '\'' || b == '"':
			quote = b
		case b == '>':
			depth--
		case b == '<':
			for _, want := range []byte("!--") {
				if i >= len(s) {
					return p.eof()
				}
				b = s[i]
				i++
				if b != want {
					depth++
					goto handle
				}
			}
			end := strings.Index(s[i:], "-->")
			if end < 0 {
				return p.eof()
			}
			i += end + 3
		}
	}
	p.pos = i
	return nil
}
