// Package xmldom is the xmlimport fixture's stand-in for the real DOM
// package; the analyzer matches its tree builders by package-path
// suffix.
package xmldom

type Node struct {
	Name string
}

func NewElement(name string) *Node        { return &Node{Name: name} }
func NewText(data string) *Node           { return &Node{} }
func Parse(b []byte) (*Node, error)       { return &Node{}, nil }
func ParseString(s string) (*Node, error) { return &Node{}, nil }
func ParseBytes(b []byte) (*Node, error)  { return &Node{}, nil }

func (n *Node) SetAttr(name, value string) *Node { return n }
func (n *Node) XML() string                      { return "" }

// Writer and Reader stand in for the streaming codec, which the wire
// packages use freely.
type Writer struct{}

func (w *Writer) Start(name string) {}
func (w *Writer) End()              {}
func String(encode func(*Writer)) string {
	encode(&Writer{})
	return ""
}

type Reader struct{}

func NewReader(s string) *Reader       { return &Reader{} }
func (r *Reader) Child(depth int) bool { return false }
func (r *Reader) Name() string         { return "" }
func (r *Reader) Node() *Node          { return &Node{} }
func (r *Reader) Close() error         { return nil }

// Other has a Node method too, which builds nothing.
type Other struct{}

func (Other) Node() *Node { return nil }
