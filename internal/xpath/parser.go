package xpath

import (
	"fmt"
)

// ---- AST ----

type expr interface {
	eval(s *state, c evalCtx) value
}

type binOp int

const (
	opOr binOp = iota
	opAnd
	opEq
	opNeq
	opLt
	opLe
	opGt
	opGe
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opUnion
)

type binExpr struct {
	op   binOp
	l, r expr
}

type negExpr struct{ x expr }

// literal is a number or string literal, boxed once when compiled.
type literal struct{ v value }

type funcCall struct {
	name string
	args []expr
}

type axis int

const (
	axisChild axis = iota
	axisAttribute
	axisDescendantOrSelf
	axisSelf
	axisParent
)

type nodeTest int

const (
	testName nodeTest = iota // match element/attribute by name ("" + wildcard flag for *)
	testText                 // text()
	testNode                 // node()
)

type step struct {
	axis  axis
	test  nodeTest
	name  string // for testName; "*" means wildcard
	preds []expr
}

type pathExpr struct {
	absolute bool
	steps    []step
}

// ---- Parser (recursive descent over the token list) ----

type parser struct {
	src  string
	toks []token
	i    int
}

// Expr is a compiled XPath expression, safe for concurrent use.
type Expr struct {
	src string
	ast expr
}

// String returns the source text the expression was compiled from.
func (e *Expr) String() string { return e.src }

// Compile parses src into an evaluatable expression.
func Compile(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	ast, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing %q", p.cur().String())
	}
	return &Expr{src: src, ast: ast}, nil
}

// MustCompile is Compile that panics on error, for statically known
// expressions.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) accept(k tokKind) bool {
	if p.cur().kind == k {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, what string) error {
	if !p.accept(k) {
		return p.errf("expected %s, found %q", what, p.cur().String())
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Expr: p.src, Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

// parseExpr := orExpr
func (p *parser) parseExpr() (expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokOr) {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: opOr, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.accept(tokAnd) {
		r, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: opAnd, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseEquality() (expr, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		var op binOp
		switch p.cur().kind {
		case tokEq:
			op = opEq
		case tokNeq:
			op = opNeq
		default:
			return l, nil
		}
		p.i++
		r, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: op, l: l, r: r}
	}
}

func (p *parser) parseRelational() (expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op binOp
		switch p.cur().kind {
		case tokLt:
			op = opLt
		case tokLe:
			op = opLe
		case tokGt:
			op = opGt
		case tokGe:
			op = opGe
		default:
			return l, nil
		}
		p.i++
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: op, l: l, r: r}
	}
}

func (p *parser) parseAdditive() (expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op binOp
		switch p.cur().kind {
		case tokPlus:
			op = opAdd
		case tokMinus:
			op = opSub
		default:
			return l, nil
		}
		p.i++
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: op, l: l, r: r}
	}
}

func (p *parser) parseMultiplicative() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op binOp
		switch p.cur().kind {
		case tokStar:
			// '*' is multiplication only in operator position; the lexer
			// cannot tell, so the parser decides: a '*' reached here (after
			// a completed operand) is arithmetic.
			op = opMul
		case tokDiv:
			op = opDiv
		case tokMod:
			op = opMod
		default:
			return l, nil
		}
		p.i++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: op, l: l, r: r}
	}
}

func (p *parser) parseUnary() (expr, error) {
	if p.accept(tokMinus) {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &negExpr{x: x}, nil
	}
	return p.parseUnion()
}

func (p *parser) parseUnion() (expr, error) {
	l, err := p.parsePathOrPrimary()
	if err != nil {
		return nil, err
	}
	for p.accept(tokPipe) {
		r, err := p.parsePathOrPrimary()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: opUnion, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parsePathOrPrimary() (expr, error) {
	switch t := p.cur(); t.kind {
	case tokNumber:
		p.i++
		return literal{t.num}, nil
	case tokString:
		p.i++
		return literal{t.text}, nil
	case tokLParen:
		p.i++
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	case tokName:
		// Function call when immediately followed by '(' and the name is
		// not a node-test keyword.
		if p.toks[p.i+1].kind == tokLParen && t.text != "text" && t.text != "node" {
			return p.parseFuncCall()
		}
		return p.parsePath()
	case tokSlash, tokDblSlash, tokDot, tokDotDot, tokAt, tokStar:
		return p.parsePath()
	default:
		return nil, p.errf("unexpected %q", t.String())
	}
}

func (p *parser) parseFuncCall() (expr, error) {
	name := p.next().text
	if err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	fc := &funcCall{name: name}
	if !p.accept(tokRParen) {
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.args = append(fc.args, arg)
			if p.accept(tokComma) {
				continue
			}
			if err := p.expect(tokRParen, ") or ,"); err != nil {
				return nil, err
			}
			break
		}
	}
	if err := checkFuncArity(fc); err != nil {
		return nil, &SyntaxError{Expr: p.src, Pos: p.toks[p.i-1].pos, Msg: err.Error()}
	}
	return fc, nil
}

func (p *parser) parsePath() (expr, error) {
	path := &pathExpr{}
	switch p.cur().kind {
	case tokSlash:
		p.i++
		path.absolute = true
		if !p.startsStep() {
			// bare "/" selects the document root
			return path, nil
		}
	case tokDblSlash:
		p.i++
		path.absolute = true
		path.steps = append(path.steps, step{axis: axisDescendantOrSelf, test: testNode})
	}
	for {
		st, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		path.steps = append(path.steps, st)
		if p.accept(tokSlash) {
			continue
		}
		if p.accept(tokDblSlash) {
			path.steps = append(path.steps, step{axis: axisDescendantOrSelf, test: testNode})
			continue
		}
		return path, nil
	}
}

func (p *parser) startsStep() bool {
	switch p.cur().kind {
	case tokName, tokStar, tokAt, tokDot, tokDotDot:
		return true
	}
	return false
}

func (p *parser) parseStep() (step, error) {
	var st step
	switch t := p.cur(); t.kind {
	case tokDot:
		p.i++
		st = step{axis: axisSelf, test: testNode}
	case tokDotDot:
		p.i++
		st = step{axis: axisParent, test: testNode}
	case tokAt:
		p.i++
		switch a := p.cur(); a.kind {
		case tokName:
			p.i++
			st = step{axis: axisAttribute, test: testName, name: a.text}
		case tokStar:
			p.i++
			st = step{axis: axisAttribute, test: testName, name: "*"}
		default:
			return st, p.errf("expected attribute name after @")
		}
	case tokStar:
		p.i++
		st = step{axis: axisChild, test: testName, name: "*"}
	case tokName:
		p.i++
		if t.text == "text" && p.cur().kind == tokLParen {
			p.i++
			if err := p.expect(tokRParen, ")"); err != nil {
				return st, err
			}
			st = step{axis: axisChild, test: testText}
		} else if t.text == "node" && p.cur().kind == tokLParen {
			p.i++
			if err := p.expect(tokRParen, ")"); err != nil {
				return st, err
			}
			st = step{axis: axisChild, test: testNode}
		} else {
			st = step{axis: axisChild, test: testName, name: t.text}
		}
	default:
		return st, p.errf("expected location step, found %q", t.String())
	}
	for p.accept(tokLBracket) {
		pred, err := p.parseExpr()
		if err != nil {
			return st, err
		}
		if err := p.expect(tokRBracket, "]"); err != nil {
			return st, err
		}
		st.preds = append(st.preds, pred)
	}
	return st, nil
}

func checkFuncArity(fc *funcCall) error {
	type arity struct{ min, max int }
	table := map[string]arity{
		"string":           {0, 1},
		"number":           {0, 1},
		"boolean":          {1, 1},
		"not":              {1, 1},
		"true":             {0, 0},
		"false":            {0, 0},
		"count":            {1, 1},
		"last":             {0, 0},
		"position":         {0, 0},
		"name":             {0, 1},
		"contains":         {2, 2},
		"starts-with":      {2, 2},
		"normalize-space":  {0, 1},
		"string-length":    {0, 1},
		"concat":           {2, 1 << 30},
		"substring":        {2, 3},
		"substring-before": {2, 2},
		"substring-after":  {2, 2},
		"translate":        {3, 3},
		"sum":              {1, 1},
		"floor":            {1, 1},
		"ceiling":          {1, 1},
		"round":            {1, 1},
	}
	a, ok := table[fc.name]
	if !ok {
		return fmt.Errorf("unknown function %s()", fc.name)
	}
	if n := len(fc.args); n < a.min || n > a.max {
		return fmt.Errorf("%s() takes %d..%d arguments, got %d", fc.name, a.min, a.max, n)
	}
	return nil
}
