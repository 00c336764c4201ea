package analysis

import "strconv"

// xmlimport keeps every wire layout in the Encode methods: documents are
// written through xmldom.Writer and read through xmldom's scanner, so no
// analyzed package may import encoding/xml. The loader skips _test.go
// files, where the reference builders and fuzz oracles keep using it.
func xmlimport() *Analyzer {
	a := &Analyzer{
		Name: "xmlimport",
		Doc:  "encoding/xml is imported only by _test.go files",
	}
	a.Run = func(p *Pass) error {
		for _, file := range p.Pkg.Files {
			for _, imp := range file.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/xml" {
					p.Reportf(imp.Pos(), "encoding/xml imported outside a _test.go file; write the layout with xmldom.Writer and read it with xmldom")
				}
			}
		}
		return nil
	}
	return a
}
