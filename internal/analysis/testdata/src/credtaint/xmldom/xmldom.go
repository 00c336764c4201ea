// Package xmldom is the credtaint fixture's stand-in for the real DOM
// package; the analyzer matches decode sources by package-path suffix.
package xmldom

type Node struct {
	Name string
}

func Parse(b []byte) (*Node, error)       { return &Node{}, nil }
func ParseString(s string) (*Node, error) { return &Node{}, nil }
func ParseBytes(b []byte) (*Node, error)  { return &Node{}, nil }

func (n *Node) Child(name string) *Node { return &Node{} }
