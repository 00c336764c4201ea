// Package cluster is the xmlimport fixture for the other wire package.
package cluster

import "xmlimport/xmldom"

func status() string {
	return xmldom.NewElement("clusterStatus").XML() // want "xmldom.NewElement builds an xmldom tree in a wire package"
}

// node reads through a method value, and parse hands a parser on: each
// is reported where it is named.
func node(r *xmldom.Reader) *xmldom.Node {
	read := r.Node // want "\\(\\*xmldom.Reader\\).Node builds an xmldom tree"
	return read()
}

func parse(raws []string, each func(func(string) (*xmldom.Node, error))) {
	each(xmldom.ParseString) // want "xmldom.ParseString builds an xmldom tree"
}
