// Package wsrpc is the xmlimport fixture for a wire package: a tree
// built or parsed anywhere in it is reported, the Writer and Reader are
// not.
package wsrpc

import "xmlimport/xmldom"

func reply() string {
	return xmldom.NewElement("ok").SetAttr("a", "b").XML() // want "xmldom.NewElement builds an xmldom tree in a wire package"
}

func text() *xmldom.Node {
	return xmldom.NewText("t") // want "xmldom.NewText builds an xmldom tree"
}

func parse(raw string, b []byte) {
	xmldom.ParseString(raw) // want "xmldom.ParseString builds an xmldom tree"
	xmldom.ParseBytes(b)    // want "xmldom.ParseBytes builds an xmldom tree"
	xmldom.Parse(b)         // want "xmldom.Parse builds an xmldom tree"
}

func decode(raw string) string {
	r := xmldom.NewReader(raw)
	if r.Child(0) {
		return r.Node().Name // want "\\(\\*xmldom.Reader\\).Node builds an xmldom tree"
	}
	return ""
}

// stream writes and reads without a tree.
func stream(raw string) (string, error) {
	r := xmldom.NewReader(raw)
	r.Child(0)
	name := r.Name()
	var o xmldom.Other
	_ = o.Node()
	return xmldom.String(func(w *xmldom.Writer) { w.Start(name); w.End() }), r.Close()
}

func allowed() *xmldom.Node {
	//lint:allow xmlimport an on-disk layout read for people, kept as a tree
	return xmldom.NewElement("profile")
}
