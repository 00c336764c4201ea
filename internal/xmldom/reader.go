package xmldom

import "strings"

// Name returns the element name of the current start or end token, in
// Clark notation when it is namespaced.
func (p *Reader) Name() string { return p.name }

// Attrs returns the attributes of the current start token, in document
// order. The slice is valid until the next call to Next.
func (p *Reader) Attrs() []Attr { return p.attrs }

// Attr returns the value of the named attribute of the current start
// token and whether it is present.
func (p *Reader) Attr(name string) (string, bool) {
	for _, a := range p.attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute's value, or def when absent.
func (p *Reader) AttrOr(name, def string) string {
	if v, ok := p.Attr(name); ok {
		return v
	}
	return def
}

// Data returns the character data of the current text or comment token.
func (p *Reader) Data() string {
	if p.off >= 0 {
		return string(p.arena[p.off:p.end])
	}
	return p.data
}

// Depth returns the number of open elements: after a start token, the
// depth of its element, the root's being 1; after an end token, the
// depth of its parent.
func (p *Reader) Depth() int {
	if p.tree {
		return len(p.walk)
	}
	return len(p.open)
}

// Child reads on to the next child element of the element open at depth
// d (0 for the document, whose child is the root) and reports whether
// there is one: its start token is then current. Whatever of the
// previous child is unread is skipped. Child returns false once the
// element at depth d has ended, or the Reader has stopped.
//
//	for d := r.Depth(); r.Child(d); {
//		switch r.Name() { … }
//	}
func (p *Reader) Child(d int) bool {
	if p.tree && len(p.walk) > d {
		p.walk = p.walk[:d] // skip the unread rest of the previous child
	}
	for {
		switch p.Next() {
		case StartToken:
			if p.Depth() == d+1 {
				return true
			}
		case EndToken:
			if p.Depth() < d {
				return false
			}
		case NoToken:
			return false
		}
	}
}

// Text reads the current element, whose start token was just read, to
// its end and returns its string-value: the character data of its
// descendants in document order, as (*Node).Text gives it. It is a
// substring of the input when the element holds one text run that
// needed no decoding.
func (p *Reader) Text() string {
	if p.kind != StartToken {
		return ""
	}
	if p.tree {
		f := p.walk[len(p.walk)-1]
		p.walk = p.walk[:len(p.walk)-1]
		p.kind, p.name = EndToken, f.n.Name
		return f.n.Text()
	}
	d := len(p.open)
	var text string
	var b strings.Builder
	pieces := 0
	for len(p.open) >= d && p.Next() != NoToken {
		if p.kind != TextToken {
			continue
		}
		if pieces == 0 && p.off < 0 {
			text = p.data
		} else {
			if pieces == 1 && text != "" {
				b.WriteString(text)
			}
			if p.off >= 0 {
				b.Write(p.arena[p.off:p.end])
			} else {
				b.WriteString(p.data)
			}
		}
		pieces++
	}
	if b.Len() > 0 || pieces > 1 {
		return b.String()
	}
	return text
}

// Node reads the current element, whose start token was just read, to
// its end and returns it as a tree, built from the tokens in slabs as
// ParseString builds a document. A Reader over a tree returns the
// tree's own node. Node returns nil when the Reader stops on a syntax
// error inside the element.
func (p *Reader) Node() *Node {
	if p.kind != StartToken {
		return nil
	}
	if p.tree {
		f := p.walk[len(p.walk)-1]
		p.walk = p.walk[:len(p.walk)-1]
		p.kind, p.name = EndToken, f.n.Name
		return f.n
	}
	b := &p.b
	b.begin(p.s[p.tag:], len(p.arena))
	p.build = b
	d := len(p.open)
	b.token(p)
	for len(p.open) >= d && p.Next() != NoToken {
		b.token(p)
	}
	p.build = nil
	return b.finish(p)
}

// walkNext yields the next token of the tree a Reader walks.
func (p *Reader) walkNext() TokenKind {
	if n := p.first; n != nil {
		p.first = nil
		return p.enter(n)
	}
	for len(p.walk) > 0 {
		f := &p.walk[len(p.walk)-1]
		if f.next < len(f.n.Children) {
			c := f.n.Children[f.next]
			f.next++
			switch c.Type {
			case ElementNode:
				return p.enter(c)
			case TextNode:
				p.kind, p.data, p.off = TextToken, c.Data, -1
				return TextToken
			case CommentNode:
				p.kind, p.data, p.off = CommentToken, c.Data, -1
				return CommentToken
			}
			continue
		}
		p.kind, p.name = EndToken, f.n.Name
		p.walk = p.walk[:len(p.walk)-1]
		return EndToken
	}
	p.kind = NoToken
	return NoToken
}

// enter makes element n's start token current.
func (p *Reader) enter(n *Node) TokenKind {
	p.walk = append(p.walk, walkFrame{n: n})
	p.kind, p.name, p.attrs = StartToken, n.Name, n.Attrs
	return StartToken
}
