package xpath

import (
	"math"
	"strconv"
	"strings"
	"sync"

	"trustvo/internal/xmldom"
)

// item is one member of a node-set: an element or text node, an
// attribute (its owner element and its place in the owner's Attrs), or
// the document node, whose only child is the root element.
type item struct {
	node *xmldom.Node // the node, the attribute's owner, or the document's root element
	attr int32        // 1 + the attribute's index in node.Attrs; 0 for a node
	doc  bool
}

func (it item) isAttr() bool { return it.attr > 0 }

func (it item) attribute() xmldom.Attr { return it.node.Attrs[it.attr-1] }

func (it item) stringValue() string {
	if it.isAttr() {
		return it.attribute().Value
	}
	return it.node.Text()
}

// value is the dynamic result of evaluating an expression: one of
// nodeset, float64, string, or bool.
type value any

type nodeset []item

// state is one evaluation's: the document root, the document order of
// its nodes (built when a union first needs it), and the arena every
// node-set of the evaluation is carved from. A location path appends
// its context item to the arena and each step replaces the node-set at
// the end with the step's result, so a path costs no allocation until
// the arena outgrows the inline array. States are pooled: an evaluation
// takes one with begin and gives it back, cleared, with release.
type state struct {
	root   *xmldom.Node
	order  map[*xmldom.Node]int
	arena  nodeset
	inline [8]item
}

var statePool = sync.Pool{New: func() any { return new(state) }}

// begin returns a cleared state for an evaluation at ctx.
func begin(ctx *xmldom.Node) *state {
	s := statePool.Get().(*state)
	s.root = ctx.Root()
	s.arena = s.inline[:0]
	return s
}

// release clears s, so that the pool holds no node of the document, and
// returns it to the pool. Nothing the evaluation returned may point into
// its arena.
func (s *state) release() {
	*s = state{}
	statePool.Put(s)
}

// evalCtx is the context of one evaluation: the context item, its 1-based
// position in the context node-set, and that node-set's size.
type evalCtx struct {
	item      item
	pos, size int
}

func (s *state) indexOf(n *xmldom.Node) int {
	if s.order == nil {
		s.order = make(map[*xmldom.Node]int)
		i := 0
		s.root.Walk(func(x *xmldom.Node) bool {
			s.order[x] = i
			i++
			return true
		})
	}
	return s.order[n]
}

// Evaluate runs the expression with ctx as the context node and returns
// the raw result (nodeset, float64, string or bool). Most callers want
// one of the typed helpers below.
func (e *Expr) Evaluate(ctx *xmldom.Node) any {
	s := begin(ctx)
	defer s.release()
	v := e.eval(s, ctx)
	if ns, ok := v.(nodeset); ok {
		out := make([]*xmldom.Node, 0, len(ns))
		for _, it := range ns {
			if !it.isAttr() {
				out = append(out, it.node)
			}
		}
		return out
	}
	return v
}

// eval evaluates the expression on s with ctx as the context node.
func (e *Expr) eval(s *state, ctx *xmldom.Node) value {
	return e.ast.eval(s, evalCtx{item: item{node: ctx}, pos: 1, size: 1})
}

// Select evaluates the expression and returns the resulting element/text
// nodes in document order. Non-nodeset results yield nil.
func (e *Expr) Select(ctx *xmldom.Node) []*xmldom.Node {
	s := begin(ctx)
	defer s.release()
	ns, ok := e.eval(s, ctx).(nodeset)
	if !ok {
		return nil
	}
	out := make([]*xmldom.Node, 0, len(ns))
	for _, it := range ns {
		if !it.isAttr() && it.node != nil {
			out = append(out, it.node)
		}
	}
	return out
}

// SelectValues evaluates the expression and returns the string-value of
// every item in the result node-set (attribute values included). A scalar
// result is returned as a single-element slice.
func (e *Expr) SelectValues(ctx *xmldom.Node) []string {
	s := begin(ctx)
	defer s.release()
	v := e.eval(s, ctx)
	if ns, ok := v.(nodeset); ok {
		out := make([]string, len(ns))
		for i, it := range ns {
			out[i] = it.stringValue()
		}
		return out
	}
	return []string{toString(v)}
}

// StringValue evaluates the expression and converts the result to a
// string using XPath string() semantics (first node's string-value).
func (e *Expr) StringValue(ctx *xmldom.Node) string {
	s := begin(ctx)
	defer s.release()
	return toString(e.eval(s, ctx))
}

// Bool evaluates the expression under XPath boolean() semantics:
// non-empty node-set, non-zero number, non-empty string.
func (e *Expr) Bool(ctx *xmldom.Node) bool {
	s := begin(ctx)
	defer s.release()
	return evalOperand(e.ast, s, evalCtx{item: item{node: ctx}, pos: 1, size: 1}).bool()
}

// Number evaluates the expression under XPath number() semantics.
func (e *Expr) Number(ctx *xmldom.Node) float64 {
	s := begin(ctx)
	defer s.release()
	return toNumber(e.eval(s, ctx))
}

// operand is a result read where it is used, in a test or a
// comparison: a location path's node-set stays in the arena, unboxed.
type operand struct {
	v   value   // the result, when it is not a path's
	ns  nodeset // the node-set, when set
	set bool
}

func evalOperand(x expr, s *state, c evalCtx) operand {
	if p, ok := x.(*pathExpr); ok {
		return operand{ns: p.nodes(s, c), set: true}
	}
	v := x.eval(s, c)
	ns, set := v.(nodeset)
	return operand{v: v, ns: ns, set: set}
}

// bool is boolean() of the operand.
func (o operand) bool() bool {
	if o.set {
		return len(o.ns) > 0
	}
	return toBool(o.v)
}

// ---- expression evaluation ----

func (l literal) eval(*state, evalCtx) value { return l.v }

func (u *negExpr) eval(s *state, c evalCtx) value { return -toNumber(u.x.eval(s, c)) }

func (b *binExpr) eval(s *state, c evalCtx) value {
	switch b.op {
	case opOr:
		if evalOperand(b.l, s, c).bool() {
			return true
		}
		return evalOperand(b.r, s, c).bool()
	case opAnd:
		if !evalOperand(b.l, s, c).bool() {
			return false
		}
		return evalOperand(b.r, s, c).bool()
	case opUnion:
		l, lok := b.l.eval(s, c).(nodeset)
		r, rok := b.r.eval(s, c).(nodeset)
		if !lok || !rok {
			return nodeset(nil)
		}
		return s.union(l, r)
	case opEq, opNeq, opLt, opLe, opGt, opGe:
		return compare(b.op, evalOperand(b.l, s, c), evalOperand(b.r, s, c))
	case opAdd:
		return toNumber(b.l.eval(s, c)) + toNumber(b.r.eval(s, c))
	case opSub:
		return toNumber(b.l.eval(s, c)) - toNumber(b.r.eval(s, c))
	case opMul:
		return toNumber(b.l.eval(s, c)) * toNumber(b.r.eval(s, c))
	case opDiv:
		return toNumber(b.l.eval(s, c)) / toNumber(b.r.eval(s, c))
	case opMod:
		return math.Mod(toNumber(b.l.eval(s, c)), toNumber(b.r.eval(s, c)))
	}
	return nil
}

// union returns the items of a and b once each, in document order
// (an attribute just after its owner).
func (s *state) union(a, b nodeset) nodeset {
	seen := make(map[itemKey]bool, len(a)+len(b))
	out := make(nodeset, 0, len(a)+len(b))
	for _, part := range [2]nodeset{a, b} {
		for _, it := range part {
			if k := keyOf(it); !seen[k] {
				seen[k] = true
				out = append(out, it)
			}
		}
	}
	s.sortDocOrder(out)
	return out
}

// itemKey is an item's identity: an attribute is its owner and name.
type itemKey struct {
	n    *xmldom.Node
	attr string
	doc  bool
}

func keyOf(it item) itemKey {
	k := itemKey{n: it.node, doc: it.doc}
	if it.isAttr() {
		k.attr = it.attribute().Name
	}
	return k
}

func (s *state) sortDocOrder(ns nodeset) {
	if len(ns) < 2 {
		return
	}
	lessKey := func(it item) (int, int, string) {
		base := s.indexOf(it.node)
		if it.isAttr() {
			return base, 1, it.attribute().Name
		}
		return base, 0, ""
	}
	// insertion sort: node-sets are small and mostly ordered already
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

func (p *pathExpr) eval(s *state, c evalCtx) value { return p.nodes(s, c) }

// nodes evaluates the path to its node-set, carved from the arena.
func (p *pathExpr) nodes(s *state, c evalCtx) nodeset {
	start := c.item
	if p.absolute {
		start = item{node: s.root, doc: true}
	}
	base := len(s.arena)
	s.arena = append(s.arena, start)
	for i := range p.steps {
		s.step(base, &p.steps[i])
	}
	end := len(s.arena)
	return s.arena[base:end:end]
}

// step replaces the node-set at arena[base:] with the result of st
// applied to each of its items: the items of every context item's axis
// that pass the predicates, in order, each once.
func (s *state) step(base int, st *step) {
	in := len(s.arena) - base
	// No axis yields a node twice from one item, and the child, attribute
	// and self axes of distinct items are disjoint; the parent and
	// descendant axes of two items can meet. An attribute is identified
	// by its name, and the parser lets a name repeat on one element.
	across := in > 1 && (st.axis == axisParent || st.axis == axisDescendantOrSelf)
	var seen map[itemKey]bool
	out := len(s.arena)
	for i := range in {
		from := len(s.arena)
		s.axis(s.arena[base+i], st)
		s.filter(from, st.preds)
		if !across && (st.axis != axisAttribute || len(s.arena)-from < 2) {
			continue
		}
		if seen == nil {
			seen = make(map[itemKey]bool)
		}
		kept := from
		for j := from; j < len(s.arena); j++ {
			if k := keyOf(s.arena[j]); !seen[k] {
				seen[k] = true
				s.arena[kept] = s.arena[j]
				kept++
			}
		}
		s.arena = s.arena[:kept]
	}
	n := copy(s.arena[base:], s.arena[out:])
	s.arena = s.arena[:base+n]
}

// axis appends the items of st's axis from it that pass st's node test.
func (s *state) axis(it item, st *step) {
	switch st.axis {
	case axisSelf:
		if matchTest(it, st) {
			s.arena = append(s.arena, it)
		}
	case axisParent:
		if it.isAttr() || it.doc {
			return
		}
		if it.node.Parent != nil {
			s.arena = append(s.arena, item{node: it.node.Parent})
		} else {
			s.arena = append(s.arena, item{node: it.node, doc: true})
		}
	case axisAttribute:
		if it.isAttr() || it.doc {
			return
		}
		for i, a := range it.node.Attrs {
			if st.name == "*" || a.Name == st.name {
				s.arena = append(s.arena, item{node: it.node, attr: int32(i + 1)})
			}
		}
	case axisChild:
		if it.isAttr() {
			return
		}
		if it.doc {
			// document node's only child is the root element
			if child := (item{node: it.node}); matchTest(child, st) {
				s.arena = append(s.arena, child)
			}
			return
		}
		for _, ch := range it.node.Children {
			if ci := (item{node: ch}); matchTest(ci, st) {
				s.arena = append(s.arena, ci)
			}
		}
	case axisDescendantOrSelf:
		if it.isAttr() {
			return
		}
		if it.doc && matchTest(it, st) {
			// The document node itself, then every node of the tree
			// (the root element included, as an ordinary element).
			s.arena = append(s.arena, it)
		}
		s.descend(it.node, st)
	}
}

// descend appends n and its descendants, in document order, that pass
// st's node test.
func (s *state) descend(n *xmldom.Node, st *step) {
	if it := (item{node: n}); matchTest(it, st) {
		s.arena = append(s.arena, it)
	}
	for _, c := range n.Children {
		s.descend(c, st)
	}
}

func matchTest(it item, st *step) bool {
	switch st.test {
	case testNode:
		return true
	case testText:
		return !it.isAttr() && it.node.Type == xmldom.TextNode
	case testName:
		if it.isAttr() {
			return st.name == "*" || it.attribute().Name == st.name
		}
		if it.node.Type != xmldom.ElementNode || it.doc {
			return false
		}
		return st.name == "*" || it.node.Name == st.name
	}
	return false
}

// filter keeps, in place, the items of arena[from:] that every predicate
// accepts; each predicate sees the positions the previous one left. What
// a predicate carves from the arena is dropped once it has answered.
func (s *state) filter(from int, preds []expr) {
	for _, pred := range preds {
		size := len(s.arena) - from
		kept := 0
		for i := range size {
			it := s.arena[from+i]
			v := evalOperand(pred, s, evalCtx{item: it, pos: i + 1, size: size})
			var ok bool
			if n, isNum := v.v.(float64); isNum {
				ok = int(n) == i+1 // positional predicate, e.g. [2]
			} else {
				ok = v.bool()
			}
			s.arena = s.arena[:from+size]
			if ok {
				s.arena[from+kept] = it
				kept++
			}
		}
		s.arena = s.arena[:from+kept]
	}
}

func (f *funcCall) eval(s *state, c evalCtx) value {
	argStr := func(i int) string {
		if i < len(f.args) {
			return toString(f.args[i].eval(s, c))
		}
		return c.item.stringValue()
	}
	switch f.name {
	case "string":
		return argStr(0)
	case "number":
		if len(f.args) == 0 {
			return toNumber(c.item.stringValue())
		}
		return toNumber(f.args[0].eval(s, c))
	case "boolean":
		return toBool(f.args[0].eval(s, c))
	case "not":
		return !toBool(f.args[0].eval(s, c))
	case "true":
		return true
	case "false":
		return false
	case "count":
		if ns, ok := f.args[0].eval(s, c).(nodeset); ok {
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
			ns, ok := f.args[0].eval(s, c).(nodeset)
			if !ok || len(ns) == 0 {
				return ""
			}
			it = ns[0]
		}
		if it.isAttr() {
			return it.attribute().Name
		}
		if it.doc || it.node.Type != xmldom.ElementNode {
			return ""
		}
		return it.node.Name
	case "contains":
		return strings.Contains(argStr(0), toString(f.args[1].eval(s, c)))
	case "starts-with":
		return strings.HasPrefix(argStr(0), toString(f.args[1].eval(s, c)))
	case "normalize-space":
		return strings.Join(strings.Fields(argStr(0)), " ")
	case "string-length":
		return float64(len([]rune(argStr(0))))
	case "concat":
		var b strings.Builder
		for _, a := range f.args {
			b.WriteString(toString(a.eval(s, c)))
		}
		return b.String()
	case "substring-before":
		str, sep := argStr(0), toString(f.args[1].eval(s, c))
		if i := strings.Index(str, sep); i >= 0 && sep != "" {
			return str[:i]
		}
		return ""
	case "substring-after":
		str, sep := argStr(0), toString(f.args[1].eval(s, c))
		if sep == "" {
			return str
		}
		if i := strings.Index(str, sep); i >= 0 {
			return str[i+len(sep):]
		}
		return ""
	case "translate":
		str := argStr(0)
		from := []rune(toString(f.args[1].eval(s, c)))
		to := []rune(toString(f.args[2].eval(s, c)))
		var b strings.Builder
		for _, r := range str {
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
				// idx >= len(to): character removed
			}
		}
		return b.String()
	case "sum":
		ns, ok := f.args[0].eval(s, c).(nodeset)
		if !ok {
			return math.NaN()
		}
		total := 0.0
		for _, it := range ns {
			total += toNumber(it.stringValue())
		}
		return total
	case "floor":
		return math.Floor(toNumber(f.args[0].eval(s, c)))
	case "ceiling":
		return math.Ceil(toNumber(f.args[0].eval(s, c)))
	case "round":
		// XPath round: round half towards positive infinity
		return math.Floor(toNumber(f.args[0].eval(s, c)) + 0.5)
	case "substring":
		runes := []rune(argStr(0))
		start := int(math.Round(toNumber(f.args[1].eval(s, c)))) - 1
		length := len(runes) - start
		if len(f.args) == 3 {
			length = int(math.Round(toNumber(f.args[2].eval(s, c))))
		}
		if start < 0 {
			length += start
			start = 0
		}
		if start >= len(runes) || length <= 0 {
			return ""
		}
		if start+length > len(runes) {
			length = len(runes) - start
		}
		return string(runes[start : start+length])
	}
	return nil
}

// ---- type conversions (XPath 1.0 semantics) ----

func toString(v value) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		return formatNumber(x)
	case nodeset:
		if len(x) == 0 {
			return ""
		}
		return x[0].stringValue()
	}
	return ""
}

// formatNumber converts a number as XPath 1.0's string() does (§4.2):
// NaN, Infinity and -Infinity by name, either zero as 0, and any other
// number as the shortest decimal that reads back as it, with no
// exponent.
func formatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == 0:
		return "0"
	}
	return strconv.FormatFloat(f, 'f', -1, 64)
}

// parseNumber converts a string as XPath 1.0's number() does (§4.4):
// optional whitespace, an optional minus sign, digits with an optional
// decimal point (or a point and digits), optional whitespace. Anything
// else, exponents, a plus sign and the names of the infinities included,
// is NaN.
func parseNumber(s string) float64 {
	i, j := 0, len(s)
	for i < j && isSpace(s[i]) {
		i++
	}
	for j > i && isSpace(s[j-1]) {
		j--
	}
	num := s[i:j]
	k := 0
	if k < len(num) && num[k] == '-' {
		k++
	}
	digits := 0
	for ; k < len(num) && isDigit(num[k]); k++ {
		digits++
	}
	if k < len(num) && num[k] == '.' {
		for k++; k < len(num) && isDigit(num[k]); k++ {
			digits++
		}
	}
	if digits == 0 || k != len(num) {
		return math.NaN()
	}
	f, _ := strconv.ParseFloat(num, 64) // well formed; out of range reads as ±Inf
	return f
}

// isSpace reports whether c is XML whitespace, XPath's S production.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func toNumber(v value) float64 {
	switch x := v.(type) {
	case nil:
		return math.NaN()
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	case string:
		return parseNumber(x)
	case nodeset:
		return toNumber(toString(x))
	}
	return math.NaN()
}

func toBool(v value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	case nodeset:
		return len(x) > 0
	}
	return false
}

// compare implements XPath 1.0 comparison semantics, including the
// existential rules for node-sets ("true if ANY node satisfies").
func compare(op binOp, l, r operand) bool {
	switch {
	case l.set && r.set:
		for _, a := range l.ns {
			for _, b := range r.ns {
				if cmpAtom(op, a.stringValue(), b.stringValue()) {
					return true
				}
			}
		}
		return false
	case l.set:
		for _, a := range l.ns {
			if cmpMixed(op, a.stringValue(), r.v) {
				return true
			}
		}
		return false
	case r.set:
		for _, b := range r.ns {
			if cmpMixed(flip(op), b.stringValue(), l.v) {
				return true
			}
		}
		return false
	default:
		return cmpScalar(op, l.v, r.v)
	}
}

func flip(op binOp) binOp {
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

// cmpMixed compares a node string-value against a scalar.
func cmpMixed(op binOp, nodeVal string, scalar value) bool {
	switch s := scalar.(type) {
	case bool:
		b := nodeVal != "" // boolean() of a single node's value as string
		return cmpScalar(op, b, s)
	case float64:
		return cmpScalar(op, toNumber(nodeVal), s)
	case string:
		return cmpAtom(op, nodeVal, s)
	}
	return false
}

// cmpAtom compares two strings: equality as strings, ordering as numbers.
func cmpAtom(op binOp, a, b string) bool {
	switch op {
	case opEq:
		return a == b
	case opNeq:
		return a != b
	default:
		return cmpNum(op, toNumber(a), toNumber(b))
	}
}

func cmpScalar(op binOp, l, r value) bool {
	if lb, ok := l.(bool); ok {
		rb := toBool(r)
		switch op {
		case opEq:
			return lb == rb
		case opNeq:
			return lb != rb
		default:
			return cmpNum(op, toNumber(lb), toNumber(rb))
		}
	}
	if rb, ok := r.(bool); ok {
		lb := toBool(l)
		switch op {
		case opEq:
			return lb == rb
		case opNeq:
			return lb != rb
		default:
			return cmpNum(op, toNumber(lb), toNumber(rb))
		}
	}
	if _, ok := l.(float64); ok {
		return cmpNum(op, l.(float64), toNumber(r))
	}
	if _, ok := r.(float64); ok {
		return cmpNum(op, toNumber(l), r.(float64))
	}
	// both strings
	ls, rs := toString(l), toString(r)
	switch op {
	case opEq:
		return ls == rs
	case opNeq:
		return ls != rs
	default:
		return cmpNum(op, toNumber(ls), toNumber(rs))
	}
}

func cmpNum(op binOp, a, b float64) bool {
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
