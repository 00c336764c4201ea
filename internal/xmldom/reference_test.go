package xmldom

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
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
