package xpath

import "slices"

// ChildNames reports which children of the elements at the absolute
// location loc ("credential", "content" for /credential/content) the
// expression may read when evaluated at the document's root element:
// the names its location paths select under such an element, or all
// when a path may read others, through *, node(), // or .., or through
// the string-value of such an element or an ancestor (a path ending
// there, or string() and its kin without an argument).
func (e *Expr) ChildNames(loc ...string) (names []string, all bool) {
	// A node-set at d in [0, len(loc)] may hold elements at loc[:d], 0
	// being the document node. Its other nodes, and every node of a set
	// outside, lie neither at or above the location nor inside it but
	// below a child already named.
	const outside = -1
	next := func(st *step, at int) int {
		wild := st.test == testNode || st.name == "*"
		switch {
		case st.axis == axisSelf:
			return at
		case st.axis == axisAttribute || st.test == testText || at == outside && st.axis != axisParent:
			return outside
		case st.axis != axisChild: // // may reach children unnamed, and .. climb back
		case at < len(loc) && (wild || st.name == loc[at]):
			return at + 1
		case at < len(loc):
			return outside
		case !wild:
			if !slices.Contains(names, st.name) {
				names = append(names, st.name)
			}
			return outside
		}
		all = true
		return outside
	}
	var walk func(x expr, at int)
	walk = func(x expr, at int) {
		switch x := x.(type) {
		case *binExpr:
			walk(x.l, at)
			walk(x.r, at)
		case *negExpr:
			walk(x.x, at)
		case *funcCall:
			switch x.name {
			case "string", "number", "normalize-space", "string-length":
				all = all || len(x.args) == 0 && at != outside
			}
			for _, a := range x.args {
				walk(a, at)
			}
		case *pathExpr:
			if x.absolute {
				at = 0
			}
			for i := range x.steps {
				at = next(&x.steps[i], at)
				for _, p := range x.steps[i].preds {
					walk(p, at)
				}
			}
			all = all || at != outside
		}
	}
	walk(e.ast, min(1, len(loc)))
	if all {
		return nil, true
	}
	return names, false
}
