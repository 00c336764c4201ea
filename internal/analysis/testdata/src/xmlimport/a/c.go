package a

import "xmlimport/xmldom"

// Outside the wire packages a tree may be built: the on-disk layouts
// keep theirs.
func profile() *xmldom.Node { return xmldom.NewElement("profile") }
