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

// Reader stands in for the pull decoder: its constructors are decode
// sources, and Node hands out a piece of what it read.
type Reader struct{}

func NewReader(s string) *Reader       { return &Reader{} }
func NewNodeReader(n *Node) *Reader    { return &Reader{} }
func (r *Reader) Child(depth int) bool { return false }
func (r *Reader) Node() *Node          { return &Node{} }
func (r *Reader) Close() error         { return nil }
