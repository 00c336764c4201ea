package xmldom

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// parseReference is the tree builder xmldom used before its own scanner:
// an encoding/xml token loop. It is kept as the oracle the scanner is
// checked against (FuzzParse, TestNameTablesMatchReference).
func parseReference(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var cur *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldom: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := NewElement(refQName(t.Name))
			for _, a := range t.Attr {
				el.Attrs = append(el.Attrs, Attr{Name: refQName(a.Name), Value: a.Value})
			}
			if cur == nil {
				if root != nil {
					return nil, errors.New("xmldom: multiple root elements")
				}
				root = el
			} else {
				cur.AppendChild(el)
			}
			cur = el
		case xml.EndElement:
			if cur == nil {
				return nil, errors.New("xmldom: unbalanced end element")
			}
			cur = cur.Parent
		case xml.CharData:
			if cur == nil {
				continue
			}
			s := string(t)
			if strings.TrimSpace(s) == "" && !refHasText(cur) {
				continue
			}
			cur.AppendChild(NewText(s))
		case xml.Comment:
			if cur != nil {
				cur.AppendChild(&Node{Type: CommentNode, Data: string(t)})
			}
		case xml.ProcInst, xml.Directive:
		}
	}
	if cur != nil {
		return nil, errors.New("xmldom: unexpected EOF inside element " + cur.Name)
	}
	if root == nil {
		return nil, ErrNoRoot
	}
	return root, nil
}

func refHasText(n *Node) bool {
	for _, c := range n.Children {
		if c.Type == TextNode && strings.TrimSpace(c.Data) != "" {
			return true
		}
	}
	return false
}

func refQName(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	return "{" + n.Space + "}" + n.Local
}

// refXML is the serializer (*Node).XML used before the Writer: a
// bytes.Buffer walk that sorts a copy of each element's attributes and
// escapes through strings.Replacer. It is kept as the oracle for the
// Writer's canonical form.
func refXML(n *Node) string {
	var b bytes.Buffer
	refWriteXML(n, &b)
	return b.String()
}

var (
	refTextEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	refAttrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

func refSortedAttrs(n *Node) []Attr {
	for i := 1; i < len(n.Attrs); i++ {
		if n.Attrs[i].Name < n.Attrs[i-1].Name {
			attrs := make([]Attr, len(n.Attrs))
			copy(attrs, n.Attrs)
			slices.SortFunc(attrs, func(a, b Attr) int { return strings.Compare(a.Name, b.Name) })
			return attrs
		}
	}
	return n.Attrs
}

func refWriteXML(n *Node, b *bytes.Buffer) {
	switch n.Type {
	case TextNode:
		refTextEscaper.WriteString(b, n.Data)
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Name)
		for _, a := range refSortedAttrs(n) {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			refAttrEscaper.WriteString(b, a.Value)
			b.WriteByte('"')
		}
		if len(n.Children) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
		for _, c := range n.Children {
			refWriteXML(c, b)
		}
		b.WriteString("</")
		b.WriteString(n.Name)
		b.WriteByte('>')
	}
}

// refIndented is the indenting serializer Indented used before the
// Writer.
func refIndented(n *Node) string {
	var b strings.Builder
	refWriteIndented(n, &b, 0)
	b.WriteByte('\n')
	return b.String()
}

func refWriteIndented(n *Node, b *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	switch n.Type {
	case TextNode:
		b.WriteString(ind)
		b.WriteString(refTextEscaper.Replace(strings.TrimSpace(n.Data)))
	case CommentNode:
		b.WriteString(ind)
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case ElementNode:
		b.WriteString(ind)
		b.WriteByte('<')
		b.WriteString(n.Name)
		for _, a := range refSortedAttrs(n) {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			b.WriteString(refAttrEscaper.Replace(a.Value))
			b.WriteByte('"')
		}
		if len(n.Children) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
		if onlyText(n) {
			b.WriteString(refTextEscaper.Replace(n.Text()))
			b.WriteString("</")
			b.WriteString(n.Name)
			b.WriteByte('>')
			return
		}
		for _, c := range n.Children {
			b.WriteByte('\n')
			refWriteIndented(c, b, depth+1)
		}
		b.WriteByte('\n')
		b.WriteString(ind)
		b.WriteString("</")
		b.WriteString(n.Name)
		b.WriteByte('>')
	}
}
