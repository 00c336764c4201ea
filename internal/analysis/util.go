package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// callee resolves the *types.Func a call invokes, or nil for calls
// through function values, conversions, and builtins.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the named function from the package
// with the given import path.
func isPkgFunc(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// signatureTakesContext reports whether any parameter of sig (or, for
// variadic context slices, its element) is a context.Context.
func signatureTakesContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// pkgPathHasSuffix reports whether the import path is exactly name or
// ends in "/name" — suffix matching keeps the analyzers testable from
// golden packages whose paths mirror the real package names.
func pkgPathHasSuffix(path, name string) bool {
	return path == name || strings.HasSuffix(path, "/"+name)
}
