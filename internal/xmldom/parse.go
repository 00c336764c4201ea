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
	p := parserPool.Get().(*parser)
	var b strings.Builder // sized by its first Write, then doubling
	for {
		n, err := r.Read(p.buf[:])
		b.Write(p.buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			parserPool.Put(p)
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
func ParseString(s string) (*Node, error) {
	return parserPool.Get().(*parser).parse(s)
}

// ParseStartTag parses the start tag that opens s and returns its
// element: the name and the attributes, decoded as ParseString decodes
// them, and no children. What follows the tag is neither read nor
// checked, so a reader that wants a few attributes of a document's root
// takes them without building the tree. The retention rule is
// ParseString's.
func ParseStartTag(s string) (*Node, error) {
	p := parserPool.Get().(*parser)
	p.s, p.pos, p.root = s, 0, nil
	p.arena = p.arena[:0]
	p.chunk = 1
	var err error
	if len(s) < 2 || s[0] != '<' || s[1] == '/' || s[1] == '?' || s[1] == '!' {
		err = p.syntaxError(0, "expected a start tag")
	} else {
		if end := strings.IndexByte(s, '>'); end > 0 {
			p.attrs = make([]Attr, 0, strings.Count(s[:end], "="))
		}
		err = p.startTag()
	}
	root := p.root
	if err == nil {
		p.fixDecoded()
	}
	p.release()
	parserPool.Put(p)
	if err != nil {
		return nil, err
	}
	return root, nil
}

// parse parses s and returns p to the pool.
func (p *parser) parse(s string) (*Node, error) {
	p.reset(s)
	root, err := p.document()
	p.release()
	parserPool.Put(p)
	return root, err
}

// parser holds the state of one parse. The scratch state (buf, open,
// pending, ns, nsUndo, arena, fixups, attrFix) is reused across parses
// through parserPool; the slabs (nodes, attrs, kids) become part of the
// returned tree and are never reused.
type parser struct {
	s   string
	pos int

	root    *Node
	open    []frame // elements whose end tag has not been read yet
	pending []*Node // children of the open elements, innermost last

	// ns maps each prefix in scope to its namespace, the default
	// namespace under "". nsUndo records, for every declaration of the
	// open elements, the binding it shadowed, innermost last, so that
	// closing an element restores its parent's scope.
	ns     map[string]string
	nsUndo []binding

	// Text and attribute values that had to be rewritten (references,
	// carriage returns) are decoded into arena; once the parse succeeds,
	// one string copy of the arena backs all of them, through fixups.
	arena   []byte
	fixups  []fixup
	attrFix []attrFix // decoded values among the current tag's attributes

	nodes []Node  // node slab
	attrs []Attr  // attribute slab
	kids  []*Node // child-pointer slab
	chunk int     // size of the next node or child-pointer chunk

	buf [4096]byte // Parse reads its input through buf
}

type frame struct {
	el      *Node
	raw     string // the tag name as written, matched against the end tag
	kids    int    // index in pending of the element's first child
	ns      int    // len(nsUndo) before the element's own declarations
	hasText bool   // a text child with non-whitespace content was added
}

// binding is a prefix's namespace before a declaration shadowed it;
// bound is false when the prefix had none.
type binding struct {
	prefix, url string
	bound       bool
}

// fixup points a tree string at arena[off:end] once the arena is copied.
type fixup struct {
	dst      *string
	off, end int
}

// attrFix marks the i-th attribute of the current tag as decoded.
type attrFix struct{ i, off, end int }

var parserPool = sync.Pool{New: func() any { return new(parser) }}

// maxPooledScratch caps the scratch capacity a pooled parser keeps, so
// one huge document does not pin its scratch for the process lifetime.
const maxPooledScratch = 1 << 12

func (p *parser) reset(s string) {
	p.s, p.pos, p.root = s, 0, nil
	p.arena = p.arena[:0]
	// Mixed content beyond the count takes one more chunk. Every
	// attribute has its own '='.
	p.chunk = nodeSlots(s)
	p.nodes = make([]Node, 0, p.chunk)
	if n := strings.Count(s, "="); n > 0 {
		p.attrs = make([]Attr, 0, n)
	}
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

// release drops every reference into the finished tree and the input,
// so that a pooled parser pins neither.
func (p *parser) release() {
	p.s, p.root = "", nil
	p.nodes, p.attrs, p.kids = nil, nil, nil
	clear(p.open[:cap(p.open)])
	clear(p.pending[:cap(p.pending)])
	clear(p.nsUndo[:cap(p.nsUndo)])
	clear(p.fixups[:cap(p.fixups)])
	p.open, p.pending, p.nsUndo, p.fixups = p.open[:0], p.pending[:0], p.nsUndo[:0], p.fixups[:0]
	// The map never holds more prefixes than nsUndo has had entries, so
	// its buckets are as bounded as nsUndo's capacity.
	if max(cap(p.open), cap(p.pending), cap(p.nsUndo), cap(p.fixups), cap(p.attrFix)) > maxPooledScratch {
		p.open, p.pending, p.nsUndo, p.fixups, p.attrFix, p.ns = nil, nil, nil, nil, nil, nil
	}
	clear(p.ns)
	if cap(p.arena) > maxPooledScratch {
		p.arena = nil
	}
}

// syntaxError reports msg at the line holding byte offset pos.
func (p *parser) syntaxError(pos int, msg string) error {
	if pos > len(p.s) {
		pos = len(p.s)
	}
	line := 1 + strings.Count(p.s[:pos], "\n")
	return fmt.Errorf("xmldom: parse: line %d: %s", line, msg)
}

func (p *parser) eof() error { return p.syntaxError(len(p.s), "unexpected EOF") }

// document parses the whole input: markup and character data in any
// order, exactly one root element, and nothing left open at the end.
func (p *parser) document() (*Node, error) {
	s := p.s
	for p.pos < len(s) {
		var err error
		if s[p.pos] != '<' {
			err = p.charData()
		} else if p.pos+1 >= len(s) {
			return nil, p.eof()
		} else {
			switch s[p.pos+1] {
			case '/':
				err = p.endTag()
			case '?':
				err = p.procInst()
			case '!':
				err = p.bang()
			default:
				err = p.startTag()
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if len(p.open) > 0 {
		return nil, p.eof()
	}
	if p.root == nil {
		return nil, ErrNoRoot
	}
	p.fixDecoded()
	return p.root, nil
}

// fixDecoded points every decoded value at its run of one string copy
// of the arena.
func (p *parser) fixDecoded() {
	if len(p.fixups) > 0 {
		decoded := string(p.arena)
		for _, f := range p.fixups {
			*f.dst = decoded[f.off:f.end]
		}
	}
}

// newNode hands out the next node of the slab.
func (p *parser) newNode() *Node {
	if len(p.nodes) == cap(p.nodes) {
		p.nodes = make([]Node, 0, p.chunk)
	}
	p.nodes = p.nodes[:len(p.nodes)+1]
	return &p.nodes[len(p.nodes)-1]
}

// charData handles a text run, which ends at the next '<' or at EOF.
func (p *parser) charData() error {
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
		return err
	}
	p.addText(text, off)
	return nil
}

// addText appends character data to the open element: text itself, or
// when off >= 0 the decoded bytes arena[off:]. Whitespace-only data is
// dropped unless the element already holds non-whitespace text:
// indentation between elements then vanishes, so pretty-printed and
// compact documents parse to the same tree, while mixed content keeps
// its spacing. Data outside the root element is dropped.
func (p *parser) addText(text string, off int) {
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
		return
	}
	f := &p.open[len(p.open)-1]
	if !blank {
		f.hasText = true
	}
	n := p.newNode()
	n.Type, n.Data, n.Parent = TextNode, text, f.el
	if off >= 0 {
		p.fixups = append(p.fixups, fixup{&n.Data, off, len(p.arena)})
	}
	p.pending = append(p.pending, n)
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
func (p *parser) decode(start, end, mode int) (s string, off int, err error) {
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
func (p *parser) space() {
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

// name reads a name at p.pos. It fails when no name starts there or
// when the name's first character is not a name-start character.
func (p *parser) name() (string, bool) {
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
func (p *parser) qualifiedName() (string, bool) {
	n, ok := p.name()
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
func (p *parser) clarkName(n string, element bool) string {
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
func (p *parser) declare(prefix, url string) {
	if p.ns == nil {
		p.ns = make(map[string]string)
	}
	prev, bound := p.ns[prefix]
	p.nsUndo = append(p.nsUndo, binding{prefix, prev, bound})
	p.ns[prefix] = url
}

// startTag parses <name attr="value" ...> or the self-closing form.
func (p *parser) startTag() error {
	s := p.s
	p.pos++ // '<'
	raw, ok := p.qualifiedName()
	if !ok {
		return p.syntaxError(p.pos, "expected element name after <")
	}
	first := len(p.attrs)
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
			p.attrFix = append(p.attrFix, attrFix{len(p.attrs) - first, off, len(p.arena)})
		}
		p.attrs = append(p.attrs, Attr{Name: name, Value: value})
	}

	nsMark := len(p.nsUndo)
	attrs := p.attrs[first:len(p.attrs):len(p.attrs)]
	for _, f := range p.attrFix {
		p.fixups = append(p.fixups, fixup{&attrs[f.i].Value, f.off, f.end})
	}
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
	el := p.newNode()
	el.Type, el.Name = ElementNode, p.clarkName(raw, true)
	if len(attrs) > 0 {
		el.Attrs = attrs
		for i := range attrs {
			if strings.IndexByte(attrs[i].Name, ':') >= 0 {
				attrs[i].Name = p.clarkName(attrs[i].Name, false)
			}
		}
	}
	if len(p.open) == 0 {
		if p.root != nil {
			return p.syntaxError(p.pos, "multiple root elements")
		}
		p.root = el
	} else {
		el.Parent = p.open[len(p.open)-1].el
		p.pending = append(p.pending, el)
	}
	p.open = append(p.open, frame{el: el, raw: raw, kids: len(p.pending), ns: nsMark})
	if empty {
		p.closeElement()
	}
	return nil
}

// endTag parses </name> and closes the innermost open element, which
// must carry the same name as written.
func (p *parser) endTag() error {
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

// closeElement moves the innermost open element's children from the
// pending stack into the child-pointer slab and pops the element,
// restoring the bindings its namespace declarations shadowed. Each
// Children slice is capped at its
// length, so a later AppendChild reallocates instead of overwriting the
// next element's children.
func (p *parser) closeElement() {
	f := p.open[len(p.open)-1]
	p.open = p.open[:len(p.open)-1]
	if k := len(p.pending) - f.kids; k > 0 {
		if cap(p.kids)-len(p.kids) < k {
			p.kids = make([]*Node, 0, max(k, p.chunk))
		}
		a := len(p.kids)
		p.kids = append(p.kids, p.pending[f.kids:]...)
		f.el.Children = p.kids[a:len(p.kids):len(p.kids)]
		clear(p.pending[f.kids:])
		p.pending = p.pending[:f.kids]
	}
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
func (p *parser) procInst() error {
	p.pos += 2 // "<?"
	target, ok := p.name()
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
// directive such as <!DOCTYPE ...>.
func (p *parser) bang() error {
	s := p.s
	if p.pos+2 >= len(s) {
		return p.eof()
	}
	switch s[p.pos+2] {
	case '-':
		return p.comment()
	case '[':
		return p.cdata()
	}
	return p.directive()
}

// comment parses <!--...-->; "--" may only appear as its terminator.
// Comment data is kept as written.
func (p *parser) comment() error {
	s := p.s
	if p.pos+3 >= len(s) {
		return p.eof()
	}
	if s[p.pos+3] != '-' {
		return p.syntaxError(p.pos, "invalid sequence <!- not part of <!--")
	}
	start := p.pos + 4
	end := strings.Index(s[start:], "--")
	if end < 0 {
		return p.eof()
	}
	end += start
	if end+2 >= len(s) {
		return p.eof()
	}
	if s[end+2] != '>' {
		return p.syntaxError(end, `invalid sequence "--" not allowed in comments`)
	}
	p.pos = end + 3
	if len(p.open) > 0 {
		n := p.newNode()
		n.Type, n.Data, n.Parent = CommentNode, s[start:end], p.open[len(p.open)-1].el
		p.pending = append(p.pending, n)
	}
	return nil
}

// cdata parses <![CDATA[...]]>, which becomes character data of its own.
func (p *parser) cdata() error {
	s := p.s
	const open = "<![CDATA["
	for i := 3; i < len(open); i++ {
		if p.pos+i >= len(s) {
			return p.eof()
		}
		if s[p.pos+i] != open[i] {
			return p.syntaxError(p.pos, "invalid <![ sequence")
		}
	}
	start := p.pos + len(open)
	end := strings.Index(s[start:], "]]>")
	if end < 0 {
		return p.syntaxError(len(s), "unexpected EOF in CDATA section")
	}
	end += start
	p.pos = end + 3
	text, off, err := p.decode(start, end, modeCDATA)
	if err != nil {
		return err
	}
	p.addText(text, off)
	return nil
}

// directive skips <!...> markup such as <!DOCTYPE ...>, following the
// nesting rules of encoding/xml: the first byte after "<!" is taken as
// is; after it, quotes hide angle brackets, a nested '<' opens a level
// that a '>' closes, and a nested <!--...--> comment is skipped whole.
func (p *parser) directive() error {
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
