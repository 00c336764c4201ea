package xpath

import (
	"math"
	"strings"

	"trustvo/internal/xmldom"
)

// The reference evaluator is the tree-walking evaluator this package had
// before evaluation reused one state and an arena of node-sets: a fresh
// context and document index per evaluation, a node-set and a dedupe map
// per step, and literals boxed on every visit. FuzzEvalMatchesReference
// checks the evaluator against it. It walks the same AST the parser
// builds and shares only the number conversions, parseNumber and
// formatNumber, which follow XPath 1.0 in both.

type refItem struct {
	node *xmldom.Node
	doc  bool
	attr bool
	name string
	val  string
}

func (it refItem) stringValue() string {
	if it.attr {
		return it.val
	}
	return it.node.Text()
}

type refNodeset []refItem

type refCtx struct {
	item refItem
	pos  int
	size int
	doc  *refDocIndex
}

type refDocIndex struct {
	order map[*xmldom.Node]int
	root  *xmldom.Node
}

func (d *refDocIndex) indexOf(n *xmldom.Node) int {
	if d.order == nil {
		d.order = make(map[*xmldom.Node]int)
		i := 0
		d.root.Walk(func(x *xmldom.Node) bool {
			d.order[x] = i
			i++
			return true
		})
	}
	return d.order[n]
}

func refEvalRoot(e *Expr, ctx *xmldom.Node) any {
	c := &refCtx{item: refItem{node: ctx}, pos: 1, size: 1, doc: &refDocIndex{root: ctx.Root()}}
	return refEval(e.ast, c)
}

func refSelect(e *Expr, ctx *xmldom.Node) []*xmldom.Node {
	ns, ok := refEvalRoot(e, ctx).(refNodeset)
	if !ok {
		return nil
	}
	out := make([]*xmldom.Node, 0, len(ns))
	for _, it := range ns {
		if !it.attr && it.node != nil {
			out = append(out, it.node)
		}
	}
	return out
}

func refSelectValues(e *Expr, ctx *xmldom.Node) []string {
	v := refEvalRoot(e, ctx)
	if ns, ok := v.(refNodeset); ok {
		out := make([]string, len(ns))
		for i, it := range ns {
			out[i] = it.stringValue()
		}
		return out
	}
	return []string{refToString(v)}
}

func refStringValue(e *Expr, ctx *xmldom.Node) string { return refToString(refEvalRoot(e, ctx)) }
func refBool(e *Expr, ctx *xmldom.Node) bool          { return refToBool(refEvalRoot(e, ctx)) }
func refNumber(e *Expr, ctx *xmldom.Node) float64     { return refToNumber(refEvalRoot(e, ctx)) }

func refEval(e expr, c *refCtx) any {
	switch e := e.(type) {
	case literal:
		return e.v
	case *negExpr:
		return -refToNumber(refEval(e.x, c))
	case *binExpr:
		return refEvalBin(e, c)
	case *pathExpr:
		return refEvalPath(e, c)
	case *funcCall:
		return refEvalFunc(e, c)
	}
	panic("reference evaluator: unknown expression")
}

func refEvalBin(b *binExpr, c *refCtx) any {
	switch b.op {
	case opOr:
		if refToBool(refEval(b.l, c)) {
			return true
		}
		return refToBool(refEval(b.r, c))
	case opAnd:
		if !refToBool(refEval(b.l, c)) {
			return false
		}
		return refToBool(refEval(b.r, c))
	case opUnion:
		l, lok := refEval(b.l, c).(refNodeset)
		r, rok := refEval(b.r, c).(refNodeset)
		if !lok || !rok {
			return refNodeset(nil)
		}
		return refUnion(l, r, c.doc)
	case opEq, opNeq, opLt, opLe, opGt, opGe:
		return refCompare(b.op, refEval(b.l, c), refEval(b.r, c))
	case opAdd:
		return refToNumber(refEval(b.l, c)) + refToNumber(refEval(b.r, c))
	case opSub:
		return refToNumber(refEval(b.l, c)) - refToNumber(refEval(b.r, c))
	case opMul:
		return refToNumber(refEval(b.l, c)) * refToNumber(refEval(b.r, c))
	case opDiv:
		return refToNumber(refEval(b.l, c)) / refToNumber(refEval(b.r, c))
	case opMod:
		return math.Mod(refToNumber(refEval(b.l, c)), refToNumber(refEval(b.r, c)))
	}
	return nil
}

type refKey struct {
	n    *xmldom.Node
	attr string
	doc  bool
}

func refKeyOf(it refItem) refKey {
	k := refKey{n: it.node, doc: it.doc}
	if it.attr {
		k.attr = it.name
	}
	return k
}

func refUnion(a, b refNodeset, doc *refDocIndex) refNodeset {
	seen := make(map[refKey]bool, len(a)+len(b))
	out := make(refNodeset, 0, len(a)+len(b))
	for _, it := range append(append(refNodeset{}, a...), b...) {
		k := refKeyOf(it)
		if !seen[k] {
			seen[k] = true
			out = append(out, it)
		}
	}
	refSortDocOrder(out, doc)
	return out
}

func refSortDocOrder(ns refNodeset, doc *refDocIndex) {
	if len(ns) < 2 {
		return
	}
	lessKey := func(it refItem) (int, int, string) {
		base := doc.indexOf(it.node)
		if it.attr {
			return base, 1, it.name
		}
		return base, 0, ""
	}
	for i := 1; i < len(ns); i++ {
		j := i
		for j > 0 {
			a0, a1, a2 := lessKey(ns[j-1])
			b0, b1, b2 := lessKey(ns[j])
			if a0 < b0 || (a0 == b0 && (a1 < b1 || (a1 == b1 && a2 <= b2))) {
				break
			}
			ns[j-1], ns[j] = ns[j], ns[j-1]
			j--
		}
	}
}

func refEvalPath(p *pathExpr, c *refCtx) any {
	var cur refNodeset
	if p.absolute {
		cur = refNodeset{{node: c.item.node.Root(), doc: true}}
	} else {
		cur = refNodeset{c.item}
	}
	for _, st := range p.steps {
		cur = refApplyStep(cur, st, c)
	}
	return cur
}

func refApplyStep(in refNodeset, st step, c *refCtx) refNodeset {
	var out refNodeset
	seen := make(map[refKey]bool)
	for _, it := range in {
		cands := refAxisItems(it, st)
		cands = refFilterPreds(cands, st.preds, c)
		for _, cd := range cands {
			k := refKeyOf(cd)
			if !seen[k] {
				seen[k] = true
				out = append(out, cd)
			}
		}
	}
	return out
}

func refAxisItems(it refItem, st step) refNodeset {
	var out refNodeset
	switch st.axis {
	case axisSelf:
		if refMatchTest(it, st) {
			out = append(out, it)
		}
	case axisParent:
		if it.attr || it.doc {
			return nil
		}
		if it.node.Parent != nil {
			out = append(out, refItem{node: it.node.Parent})
		} else {
			out = append(out, refItem{node: it.node, doc: true})
		}
	case axisAttribute:
		if it.attr || it.doc {
			return nil
		}
		for _, a := range it.node.Attrs {
			if st.name == "*" || a.Name == st.name {
				out = append(out, refItem{node: it.node, attr: true, name: a.Name, val: a.Value})
			}
		}
	case axisChild:
		if it.attr {
			return nil
		}
		if it.doc {
			child := refItem{node: it.node}
			if refMatchTest(child, st) {
				out = append(out, child)
			}
			return out
		}
		for _, ch := range it.node.Children {
			ci := refItem{node: ch}
			if refMatchTest(ci, st) {
				out = append(out, ci)
			}
		}
	case axisDescendantOrSelf:
		if it.attr {
			return nil
		}
		if it.doc && refMatchTest(it, st) {
			out = append(out, it)
		}
		it.node.Walk(func(n *xmldom.Node) bool {
			ni := refItem{node: n}
			if refMatchTest(ni, st) {
				out = append(out, ni)
			}
			return true
		})
	}
	return out
}

func refMatchTest(it refItem, st step) bool {
	switch st.test {
	case testNode:
		return true
	case testText:
		return !it.attr && it.node.Type == xmldom.TextNode
	case testName:
		if it.attr {
			return st.name == "*" || it.name == st.name
		}
		if it.node.Type != xmldom.ElementNode || it.doc {
			return false
		}
		return st.name == "*" || it.node.Name == st.name
	}
	return false
}

func refFilterPreds(ns refNodeset, preds []expr, c *refCtx) refNodeset {
	for _, pred := range preds {
		var kept refNodeset
		for i, it := range ns {
			pc := &refCtx{item: it, pos: i + 1, size: len(ns), doc: c.doc}
			v := refEval(pred, pc)
			ok := false
			if n, isNum := v.(float64); isNum {
				ok = int(n) == pc.pos
			} else {
				ok = refToBool(v)
			}
			if ok {
				kept = append(kept, it)
			}
		}
		ns = kept
	}
	return ns
}

func refEvalFunc(f *funcCall, c *refCtx) any {
	argStr := func(i int) string {
		if i < len(f.args) {
			return refToString(refEval(f.args[i], c))
		}
		return c.item.stringValue()
	}
	switch f.name {
	case "string":
		return argStr(0)
	case "number":
		if len(f.args) == 0 {
			return refToNumber(c.item.stringValue())
		}
		return refToNumber(refEval(f.args[0], c))
	case "boolean":
		return refToBool(refEval(f.args[0], c))
	case "not":
		return !refToBool(refEval(f.args[0], c))
	case "true":
		return true
	case "false":
		return false
	case "count":
		if ns, ok := refEval(f.args[0], c).(refNodeset); ok {
			return float64(len(ns))
		}
		return 0.0
	case "last":
		return float64(c.size)
	case "position":
		return float64(c.pos)
	case "name":
		it := c.item
		if len(f.args) == 1 {
			ns, ok := refEval(f.args[0], c).(refNodeset)
			if !ok || len(ns) == 0 {
				return ""
			}
			it = ns[0]
		}
		if it.attr {
			return it.name
		}
		if it.doc || it.node.Type != xmldom.ElementNode {
			return ""
		}
		return it.node.Name
	case "contains":
		return strings.Contains(argStr(0), refToString(refEval(f.args[1], c)))
	case "starts-with":
		return strings.HasPrefix(argStr(0), refToString(refEval(f.args[1], c)))
	case "normalize-space":
		return strings.Join(strings.Fields(argStr(0)), " ")
	case "string-length":
		return float64(len([]rune(argStr(0))))
	case "concat":
		var b strings.Builder
		for _, a := range f.args {
			b.WriteString(refToString(refEval(a, c)))
		}
		return b.String()
	case "substring-before":
		s, sep := argStr(0), refToString(refEval(f.args[1], c))
		if i := strings.Index(s, sep); i >= 0 && sep != "" {
			return s[:i]
		}
		return ""
	case "substring-after":
		s, sep := argStr(0), refToString(refEval(f.args[1], c))
		if sep == "" {
			return s
		}
		if i := strings.Index(s, sep); i >= 0 {
			return s[i+len(sep):]
		}
		return ""
	case "translate":
		s := argStr(0)
		from := []rune(refToString(refEval(f.args[1], c)))
		to := []rune(refToString(refEval(f.args[2], c)))
		var b strings.Builder
		for _, r := range s {
			idx := -1
			for i, fr := range from {
				if fr == r {
					idx = i
					break
				}
			}
			switch {
			case idx < 0:
				b.WriteRune(r)
			case idx < len(to):
				b.WriteRune(to[idx])
			}
		}
		return b.String()
	case "sum":
		ns, ok := refEval(f.args[0], c).(refNodeset)
		if !ok {
			return math.NaN()
		}
		total := 0.0
		for _, it := range ns {
			total += refToNumber(it.stringValue())
		}
		return total
	case "floor":
		return math.Floor(refToNumber(refEval(f.args[0], c)))
	case "ceiling":
		return math.Ceil(refToNumber(refEval(f.args[0], c)))
	case "round":
		return math.Floor(refToNumber(refEval(f.args[0], c)) + 0.5)
	case "substring":
		s := []rune(argStr(0))
		start := int(math.Round(refToNumber(refEval(f.args[1], c)))) - 1
		length := len(s) - start
		if len(f.args) == 3 {
			length = int(math.Round(refToNumber(refEval(f.args[2], c))))
		}
		if start < 0 {
			length += start
			start = 0
		}
		if start >= len(s) || length <= 0 {
			return ""
		}
		if start+length > len(s) {
			length = len(s) - start
		}
		return string(s[start : start+length])
	}
	return nil
}

func refToString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		return formatNumber(x)
	case refNodeset:
		if len(x) == 0 {
			return ""
		}
		return x[0].stringValue()
	}
	return ""
}

func refToNumber(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	case string:
		return parseNumber(x)
	case refNodeset:
		return refToNumber(refToString(x))
	}
	return math.NaN()
}

func refToBool(v any) bool {
	switch x := v.(type) {
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	case refNodeset:
		return len(x) > 0
	}
	return false
}

func refCompare(op binOp, l, r any) bool {
	ln, lIsSet := l.(refNodeset)
	rn, rIsSet := r.(refNodeset)
	switch {
	case lIsSet && rIsSet:
		for _, a := range ln {
			for _, b := range rn {
				if refCmpAtom(op, a.stringValue(), b.stringValue()) {
					return true
				}
			}
		}
		return false
	case lIsSet:
		for _, a := range ln {
			if refCmpMixed(op, a.stringValue(), r) {
				return true
			}
		}
		return false
	case rIsSet:
		for _, b := range rn {
			if refCmpMixed(refFlip(op), b.stringValue(), l) {
				return true
			}
		}
		return false
	default:
		return refCmpScalar(op, l, r)
	}
}

func refFlip(op binOp) binOp {
	switch op {
	case opLt:
		return opGt
	case opLe:
		return opGe
	case opGt:
		return opLt
	case opGe:
		return opLe
	}
	return op
}

func refCmpMixed(op binOp, nodeVal string, scalar any) bool {
	switch s := scalar.(type) {
	case bool:
		return refCmpScalar(op, nodeVal != "", s)
	case float64:
		return refCmpScalar(op, refToNumber(nodeVal), s)
	case string:
		return refCmpAtom(op, nodeVal, s)
	}
	return false
}

func refCmpAtom(op binOp, a, b string) bool {
	switch op {
	case opEq:
		return a == b
	case opNeq:
		return a != b
	default:
		return refCmpNum(op, refToNumber(a), refToNumber(b))
	}
}

func refCmpScalar(op binOp, l, r any) bool {
	if lb, ok := l.(bool); ok {
		rb := refToBool(r)
		switch op {
		case opEq:
			return lb == rb
		case opNeq:
			return lb != rb
		default:
			return refCmpNum(op, refToNumber(lb), refToNumber(rb))
		}
	}
	if rb, ok := r.(bool); ok {
		lb := refToBool(l)
		switch op {
		case opEq:
			return lb == rb
		case opNeq:
			return lb != rb
		default:
			return refCmpNum(op, refToNumber(lb), refToNumber(rb))
		}
	}
	if _, ok := l.(float64); ok {
		return refCmpNum(op, l.(float64), refToNumber(r))
	}
	if _, ok := r.(float64); ok {
		return refCmpNum(op, refToNumber(l), r.(float64))
	}
	ls, rs := refToString(l), refToString(r)
	switch op {
	case opEq:
		return ls == rs
	case opNeq:
		return ls != rs
	default:
		return refCmpNum(op, refToNumber(ls), refToNumber(rs))
	}
}

func refCmpNum(op binOp, a, b float64) bool {
	switch op {
	case opEq:
		return a == b
	case opNeq:
		return a != b
	case opLt:
		return a < b
	case opLe:
		return a <= b
	case opGt:
		return a > b
	case opGe:
		return a >= b
	}
	return false
}
