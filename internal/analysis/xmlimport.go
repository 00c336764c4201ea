package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// xmlimport keeps every wire layout in the Encode methods: documents are
// written through xmldom.Writer and read through xmldom's scanner, so no
// analyzed package may import encoding/xml. In the wire packages, wsrpc
// and cluster, every document on the wire has one Writer layout and one
// Reader decode, so no code there builds a tree either: a call to, or
// any other use of, xmldom.NewElement, NewText, Parse, ParseString,
// ParseBytes or (*xmldom.Reader).Node is reported. The loader skips
// _test.go files, where the reference builders and fuzz oracles keep
// using both.
func xmlimport() *Analyzer {
	a := &Analyzer{
		Name: "xmlimport",
		Doc:  "encoding/xml is imported only by _test.go files, and wsrpc and cluster build no xmldom tree",
	}
	a.Run = func(p *Pass) error {
		for _, file := range p.Pkg.Files {
			for _, imp := range file.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/xml" {
					p.Reportf(imp.Pos(), "encoding/xml imported outside a _test.go file; write the layout with xmldom.Writer and read it with xmldom")
				}
			}
		}
		if !pkgPathHasSuffix(p.Pkg.Path, "wsrpc") && !pkgPathHasSuffix(p.Pkg.Path, "cluster") {
			return nil
		}
		info := p.Pkg.TypesInfo
		for _, file := range p.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				// A selector, so that a method value or a function passed
				// on is caught as a call is.
				if sel, ok := n.(*ast.SelectorExpr); ok {
					fn, _ := info.Uses[sel.Sel].(*types.Func)
					if name := treeBuilder(fn); name != "" {
						p.Reportf(sel.Pos(), "%s builds an xmldom tree in a wire package; write the layout with xmldom.Writer and read it with xmldom.Reader", name)
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// treeBuilder names fn when it is one of xmldom's tree builders ("" when
// it is not): a constructor or parser of *xmldom.Node, or the Reader
// method that turns what it reads into one.
func treeBuilder(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil || !pkgPathHasSuffix(fn.Pkg().Path(), "xmldom") {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		switch fn.Name() {
		case "NewElement", "NewText", "Parse", "ParseString", "ParseBytes":
			return "xmldom." + fn.Name()
		}
		return ""
	}
	if ptr, ok := recv.Type().(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok && named.Obj().Name() == "Reader" && fn.Name() == "Node" {
			return "(*xmldom.Reader).Node"
		}
	}
	return ""
}
