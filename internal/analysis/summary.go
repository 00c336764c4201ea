package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The summary layer distills each function body into the facts the
// interprocedural analyzers compose: an ordered stream of lock
// acquire/release events and call/spawn sites annotated with the locks
// held at that point, timer/ticker creation sites with their stop
// disposition, whether the function loops forever without a cancel
// path, and taint facts (returns externally-decoded bytes; performs
// signature verification and expiry checks). Lock identities are field
// objects, not expressions, so `n.repl.mu` and the alias `r := &n.repl;
// r.mu.Lock()` resolve to the same lock "cluster.replState.mu".

// Module is the shared interprocedural state for one analysis run: all
// loaded packages, the call graph, and one summary per function body.
type Module struct {
	Pkgs  []*Package
	graph *CallGraph
	sums  map[*FuncNode]*FuncSummary

	// fieldOwner renders struct-field lock/timer identities.
	fieldOwner map[*types.Var]string
	// stoppedFields holds struct fields on which .Stop() is called
	// anywhere in the module (tickers stored to a field and stopped in a
	// Close/Shutdown method elsewhere).
	stoppedFields map[*types.Var]bool
}

// NewModule builds the call graph and all function summaries, then runs
// the cross-function fixpoints (transitive taint and sanitizer facts).
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:          pkgs,
		graph:         buildCallGraph(pkgs),
		sums:          make(map[*FuncNode]*FuncSummary),
		fieldOwner:    make(map[*types.Var]string),
		stoppedFields: make(map[*types.Var]bool),
	}
	for _, named := range m.graph.named {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		owner := named.Obj().Name()
		if p := named.Obj().Pkg(); p != nil {
			owner = p.Name() + "." + owner
		}
		for i := 0; i < st.NumFields(); i++ {
			m.fieldOwner[st.Field(i)] = owner
		}
	}
	for _, n := range m.graph.Nodes {
		m.sums[n] = m.summarize(n)
		m.graph.addCallsFrom(n, m.sums[n])
	}
	m.propagateSanitizers()
	m.propagateTaint()
	return m
}

// Graph returns the module call graph.
func (m *Module) Graph() *CallGraph { return m.graph }

// Summary returns the summary for a node (nil for unknown nodes).
func (m *Module) Summary(n *FuncNode) *FuncSummary { return m.sums[n] }

// OpKind classifies one summary event.
type OpKind int

const (
	OpAcquire OpKind = iota
	OpRelease
	OpCall
	OpSpawn
)

// SummaryOp is one event in a function body, in source order.
type SummaryOp struct {
	Kind     OpKind
	Lock     string      // acquire/release: the lock identity
	RLock    bool        // acquire/release via RLock/RUnlock
	Targets  []*FuncNode // call/spawn: resolved callee bodies (may be empty)
	Held     []string    // sorted lock identities held entering this op
	Pos      token.Pos
	Deferred bool
}

// TimerSite is one time.NewTicker/NewTimer/Tick/After call site.
type TimerSite struct {
	Kind     string // "NewTicker", "NewTimer", "Tick", "After"
	Pos      token.Pos
	Stopped  bool       // a Stop/Reset on the result is visible in this function
	Escapes  bool       // result is returned or passed on — managed elsewhere
	FieldVar *types.Var // field the result is stored to (module-wide Stop check)
	InSelect bool       // time.After: the call is a select case channel
	Cases    int        // time.After: how many cases that select has
	InLoop   bool       // the site sits inside a loop body
}

// FuncSummary is the composed per-function fact sheet.
type FuncSummary struct {
	Node   *FuncNode
	Ops    []SummaryOp
	Timers []TimerSite

	// ForeverLoop is the position of a `for { }`-style loop with no
	// return, break, channel receive, or select — a goroutine running it
	// can never be stopped (0 = none).
	ForeverLoop token.Pos

	// ReturnsTainted: some return value derives from externally decoded
	// bytes (xmldom.Parse*, base64 decode, io.ReadAll, or a call to
	// another tainted-returning function). Fixpointed module-wide.
	ReturnsTainted bool
	// Sanitizes: the function (possibly via callees) both verifies a
	// signature and checks an expiry — its output is trusted.
	Sanitizes bool

	verifies []token.Pos // signature-verification sites (own + sanitizing calls)
	expiries []token.Pos // expiry-check sites (own + sanitizing calls)

	ownVerifies []token.Pos
	ownExpiries []token.Pos
}

// VerifySites returns the positions where a signature verification is
// performed or delegated; ExpirySites likewise for expiry checks.
func (s *FuncSummary) VerifySites() []token.Pos { return s.verifies }
func (s *FuncSummary) ExpirySites() []token.Pos { return s.expiries }

// addCallsFrom folds a summary's resolved call targets into the graph's
// edge cache.
func (g *CallGraph) addCallsFrom(n *FuncNode, sum *FuncSummary) {
	for _, op := range sum.Ops {
		if op.Kind == OpCall || op.Kind == OpSpawn {
			g.addCall(n, op.Targets)
		}
	}
}

// --- summary construction ---

type sumBuilder struct {
	m    *Module
	g    *CallGraph
	pkg  *Package
	node *FuncNode
	sum  *FuncSummary

	// locals tracks function values bound to local variables
	// (f := x.Method; ... f()) for call resolution.
	locals map[types.Object][]*FuncNode
	// timerVars maps a local variable to the timer site assigned to it.
	timerVars map[types.Object]*TimerSite

	loopDepth int
	// selCases > 0 while walking the comm expression of a select case:
	// the number of cases in that select.
	selCases int
	// escDepth > 0 while walking expressions whose value escapes the
	// function (call arguments, return values, composite literals, channel
	// sends) — a timer created there is presumed managed by its receiver.
	escDepth int
}

func (m *Module) summarize(node *FuncNode) *FuncSummary {
	b := &sumBuilder{
		m: m, g: m.graph, pkg: node.Pkg, node: node,
		sum:       &FuncSummary{Node: node},
		locals:    make(map[types.Object][]*FuncNode),
		timerVars: make(map[types.Object]*TimerSite),
	}
	held := make(map[string]bool)
	b.walkStmts(node.Body.List, held)
	b.sum.verifies = append([]token.Pos(nil), b.sum.ownVerifies...)
	b.sum.expiries = append([]token.Pos(nil), b.sum.ownExpiries...)
	return b.sum
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

func unionHeld(a, b map[string]bool) map[string]bool {
	for k := range b {
		a[k] = true
	}
	return a
}

func heldList(held map[string]bool) []string {
	if len(held) == 0 {
		return nil
	}
	out := make([]string, 0, len(held))
	for k := range held {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (b *sumBuilder) walkStmts(list []ast.Stmt, held map[string]bool) map[string]bool {
	for _, s := range list {
		held = b.walkStmt(s, held)
	}
	return held
}

// walkStmt threads the held-lock set through one statement. Branch
// bodies run on copies and merge by union: a lock possibly held after a
// branch counts as held (conservative for ordering).
func (b *sumBuilder) walkStmt(s ast.Stmt, held map[string]bool) map[string]bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.walkStmts(s.List, held)
	case *ast.ExprStmt:
		return b.walkExpr(s.X, held)
	case *ast.GoStmt:
		held = b.walkCallOperands(s.Call, held)
		b.emitCallOp(OpSpawn, s.Call, held, false)
		return held
	case *ast.DeferStmt:
		if id, rlock, isUnlock := b.unlockOf(s.Call); isUnlock {
			// Deferred unlock: the lock stays held to function end.
			b.sum.Ops = append(b.sum.Ops, SummaryOp{
				Kind: OpRelease, Lock: id, RLock: rlock,
				Held: heldList(held), Pos: s.Pos(), Deferred: true,
			})
			return held
		}
		held = b.walkCallOperands(s.Call, held)
		b.noteStopCall(s.Call)
		b.noteVerifyExpiry(s.Call)
		b.emitCallOp(OpCall, s.Call, held, true)
		return held
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			held = b.walkExpr(rhs, held)
		}
		for _, lhs := range s.Lhs {
			held = b.walkExpr(lhs, held)
		}
		b.recordAssign(s)
		return held
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = b.walkExpr(v, held)
					}
					b.recordValueSpec(vs)
				}
			}
		}
		return held
	case *ast.ReturnStmt:
		b.escDepth++
		for _, r := range s.Results {
			held = b.walkExpr(r, held)
		}
		b.escDepth--
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = b.walkStmt(s.Init, held)
		}
		held = b.walkExpr(s.Cond, held)
		thenHeld := b.walkStmts(s.Body.List, copyHeld(held))
		elseHeld := copyHeld(held)
		if s.Else != nil {
			elseHeld = b.walkStmt(s.Else, elseHeld)
		}
		return unionHeld(thenHeld, elseHeld)
	case *ast.ForStmt:
		if s.Init != nil {
			held = b.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			held = b.walkExpr(s.Cond, held)
		}
		b.checkForeverLoop(s)
		b.loopDepth++
		body := b.walkStmts(s.Body.List, copyHeld(held))
		if s.Post != nil {
			body = b.walkStmt(s.Post, body)
		}
		b.loopDepth--
		return unionHeld(held, body)
	case *ast.RangeStmt:
		held = b.walkExpr(s.X, held)
		b.loopDepth++
		body := b.walkStmts(s.Body.List, copyHeld(held))
		b.loopDepth--
		return unionHeld(held, body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = b.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			held = b.walkExpr(s.Tag, held)
		}
		out := copyHeld(held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				held = b.walkExpr(e, held)
			}
			out = unionHeld(out, b.walkStmts(cc.Body, copyHeld(held)))
		}
		return out
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = b.walkStmt(s.Init, held)
		}
		held = b.walkStmt(s.Assign, held)
		out := copyHeld(held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			out = unionHeld(out, b.walkStmts(cc.Body, copyHeld(held)))
		}
		return out
	case *ast.SelectStmt:
		out := copyHeld(held)
		ncases := len(s.Body.List)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				b.selCases = ncases
				held = b.walkStmt(cc.Comm, held)
				b.selCases = 0
			}
			out = unionHeld(out, b.walkStmts(cc.Body, copyHeld(held)))
		}
		return out
	case *ast.LabeledStmt:
		return b.walkStmt(s.Stmt, held)
	case *ast.SendStmt:
		held = b.walkExpr(s.Chan, held)
		b.escDepth++
		held = b.walkExpr(s.Value, held)
		b.escDepth--
		return held
	case *ast.IncDecStmt:
		return b.walkExpr(s.X, held)
	default:
		return held
	}
}

// walkExpr visits an expression in evaluation order, emitting ops for
// the calls it contains.
func (b *sumBuilder) walkExpr(e ast.Expr, held map[string]bool) map[string]bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		held = b.walkCallOperands(e, held)
		return b.handleCall(e, held)
	case *ast.FuncLit:
		return held // a separate node; summarized on its own
	case *ast.ParenExpr:
		return b.walkExpr(e.X, held)
	case *ast.SelectorExpr:
		return b.walkExpr(e.X, held)
	case *ast.StarExpr:
		return b.walkExpr(e.X, held)
	case *ast.UnaryExpr:
		return b.walkExpr(e.X, held)
	case *ast.BinaryExpr:
		held = b.walkExpr(e.X, held)
		return b.walkExpr(e.Y, held)
	case *ast.IndexExpr:
		held = b.walkExpr(e.X, held)
		return b.walkExpr(e.Index, held)
	case *ast.IndexListExpr:
		held = b.walkExpr(e.X, held)
		for _, ix := range e.Indices {
			held = b.walkExpr(ix, held)
		}
		return held
	case *ast.SliceExpr:
		held = b.walkExpr(e.X, held)
		for _, x := range []ast.Expr{e.Low, e.High, e.Max} {
			if x != nil {
				held = b.walkExpr(x, held)
			}
		}
		return held
	case *ast.TypeAssertExpr:
		return b.walkExpr(e.X, held)
	case *ast.CompositeLit:
		b.escDepth++
		for _, el := range e.Elts {
			held = b.walkExpr(el, held)
		}
		b.escDepth--
		return held
	case *ast.KeyValueExpr:
		return b.walkExpr(e.Value, held)
	default:
		return held
	}
}

// walkCallOperands visits a call's function operand and arguments
// without treating the call itself.
func (b *sumBuilder) walkCallOperands(call *ast.CallExpr, held map[string]bool) map[string]bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		held = b.walkExpr(sel.X, held)
	}
	b.escDepth++
	for _, a := range call.Args {
		held = b.walkExpr(a, held)
	}
	b.escDepth--
	return held
}

// handleCall classifies one call: mutex acquire/release, timer
// creation, signature/expiry fact, or a plain call op.
func (b *sumBuilder) handleCall(call *ast.CallExpr, held map[string]bool) map[string]bool {
	if id, method, rlock, ok := b.mutexCall(call); ok {
		switch method {
		case "Lock", "RLock":
			b.sum.Ops = append(b.sum.Ops, SummaryOp{
				Kind: OpAcquire, Lock: id, RLock: rlock,
				Held: heldList(held), Pos: call.Pos(),
			})
			held[id] = true
		case "Unlock", "RUnlock":
			b.sum.Ops = append(b.sum.Ops, SummaryOp{
				Kind: OpRelease, Lock: id, RLock: rlock,
				Held: heldList(held), Pos: call.Pos(),
			})
			delete(held, id)
		}
		return held
	}
	if b.timerCall(call) {
		return held
	}
	b.noteStopCall(call)
	b.noteVerifyExpiry(call)
	b.emitCallOp(OpCall, call, held, false)
	return held
}

func (b *sumBuilder) emitCallOp(kind OpKind, call *ast.CallExpr, held map[string]bool, deferred bool) {
	b.sum.Ops = append(b.sum.Ops, SummaryOp{
		Kind: kind, Targets: b.g.resolveCall(b.pkg, call, b.locals),
		Held: heldList(held), Pos: call.Pos(), Deferred: deferred,
	})
}

// mutexCall matches sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock calls
// (including through embedded mutexes) and names the lock.
func (b *sumBuilder) mutexCall(call *ast.CallExpr) (id, method string, rlock, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false, false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
		return "", "", false, false
	}
	fn, isFn := b.pkg.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false, false
	}
	return b.lockID(sel), name, strings.HasPrefix(name, "R"), true
}

// lockID names the mutex a Lock/Unlock selector refers to. Field
// selections resolve to the field object's owner type, so every alias
// of the same field is the same lock; package vars get pkg.name; locals
// get a per-function name.
func (b *sumBuilder) lockID(sel *ast.SelectorExpr) string {
	info := b.pkg.TypesInfo
	// Embedded mutex: x.Lock() selects through an embedded field — take
	// the field path's leaf from the selection.
	if s := info.Selections[sel]; s != nil && len(s.Index()) > 1 {
		if st, ok := s.Recv().Underlying().(*types.Struct); ok {
			f := st.Field(s.Index()[0])
			if owner := b.m.fieldOwner[f]; owner != "" {
				return owner + "." + f.Name()
			}
		}
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			if v.IsField() {
				if owner := b.m.fieldOwner[v]; owner != "" {
					return owner + "." + v.Name()
				}
				return b.pkg.Name + ".?." + v.Name()
			}
			// Qualified package var (pkg.Mu.Lock() from another package):
			// same identity as the declaring package's own references.
			if id := packageVarID(v); id != "" {
				return id
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			if v.IsField() {
				if owner := b.m.fieldOwner[v]; owner != "" {
					return owner + "." + v.Name()
				}
			}
			if id := packageVarID(v); id != "" {
				return id
			}
			// Local mutex (or mutex-typed parameter): scope to the function.
			return b.node.Name() + "/" + v.Name()
		}
	}
	return b.node.Name() + "/" + types.ExprString(sel.X)
}

// packageVarID renders a package-scoped variable as "pkg.name" ("" for
// non-package vars), so every reference — qualified or not — agrees on
// the lock identity.
func packageVarID(v *types.Var) string {
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Name() + "." + v.Name()
	}
	return ""
}

// timerCall records time.NewTicker/NewTimer/Tick/After sites; reports
// whether the call was one.
func (b *sumBuilder) timerCall(call *ast.CallExpr) bool {
	fn := callee(b.pkg.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false // (time.Time).After is a comparison, not a timer
	}
	switch fn.Name() {
	case "NewTicker", "NewTimer", "Tick", "After":
	default:
		return false
	}
	b.sum.Timers = append(b.sum.Timers, TimerSite{
		Kind:     fn.Name(),
		Pos:      call.Pos(),
		Escapes:  b.escDepth > 0,
		InSelect: b.selCases > 0,
		Cases:    b.selCases,
		InLoop:   b.loopDepth > 0,
	})
	return true
}

// noteStopCall marks timers stopped in-function and struct fields
// stopped anywhere module-wide.
func (b *sumBuilder) noteStopCall(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stop" && sel.Sel.Name != "Reset") {
		return
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		if site := b.timerVars[b.pkg.TypesInfo.Uses[x]]; site != nil {
			site.Stopped = true
		}
	case *ast.SelectorExpr:
		if v, ok := b.pkg.TypesInfo.Uses[x.Sel].(*types.Var); ok && v.IsField() {
			b.m.stoppedFields[v] = true
		}
	}
}

// noteVerifyExpiry records signature-verification and expiry-check
// sites: crypto/ed25519's Verify, crypto/hmac's Equal (a MAC check,
// which is how pki opens a seal), Verify* methods on pki types, and time
// comparisons (time.Time.After/Before with a parsed deadline).
func (b *sumBuilder) noteVerifyExpiry(call *ast.CallExpr) {
	fn := callee(b.pkg.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	switch {
	case path == "crypto/ed25519" && fn.Name() == "Verify",
		path == "crypto/hmac" && fn.Name() == "Equal":
		b.sum.ownVerifies = append(b.sum.ownVerifies, call.Pos())
	case pkgPathHasSuffix(path, "pki") && strings.HasPrefix(fn.Name(), "Verify"):
		b.sum.ownVerifies = append(b.sum.ownVerifies, call.Pos())
	case path == "time" && (fn.Name() == "After" || fn.Name() == "Before"):
		// Methods only: time.After the function is a timer, filtered above.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			b.sum.ownExpiries = append(b.sum.ownExpiries, call.Pos())
		}
	}
}

// unlockOf matches a deferred mu.Unlock()/RUnlock() call.
func (b *sumBuilder) unlockOf(call *ast.CallExpr) (id string, rlock, ok bool) {
	lid, method, rl, isMu := b.mutexCall(call)
	if !isMu || (method != "Unlock" && method != "RUnlock") {
		return "", false, false
	}
	return lid, rl, true
}

// recordAssign tracks local function-value bindings and timer
// variables.
func (b *sumBuilder) recordAssign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		rhs := s.Rhs[i]
		switch l := lhs.(type) {
		case *ast.Ident:
			obj := b.pkg.TypesInfo.Defs[l]
			if obj == nil {
				obj = b.pkg.TypesInfo.Uses[l]
			}
			if obj == nil {
				continue
			}
			if ts := b.g.staticValueTargets(b.pkg, rhs); ts != nil {
				b.locals[obj] = ts
			}
			b.recordTimerBinding(obj, nil, rhs)
		case *ast.SelectorExpr:
			if v, ok := b.pkg.TypesInfo.Uses[l.Sel].(*types.Var); ok && v.IsField() {
				b.recordTimerBinding(nil, v, rhs)
			}
		}
	}
}

func (b *sumBuilder) recordValueSpec(vs *ast.ValueSpec) {
	if len(vs.Names) != len(vs.Values) {
		return
	}
	for i, name := range vs.Names {
		obj := b.pkg.TypesInfo.Defs[name]
		if obj == nil {
			continue
		}
		if ts := b.g.staticValueTargets(b.pkg, vs.Values[i]); ts != nil {
			b.locals[obj] = ts
		}
		b.recordTimerBinding(obj, nil, vs.Values[i])
	}
}

// recordTimerBinding links a just-created timer site to the variable or
// field receiving it.
func (b *sumBuilder) recordTimerBinding(local types.Object, field *types.Var, rhs ast.Expr) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(b.sum.Timers) == 0 {
		return
	}
	site := &b.sum.Timers[len(b.sum.Timers)-1]
	if site.Pos != call.Pos() || (site.Kind != "NewTicker" && site.Kind != "NewTimer") {
		return
	}
	if field != nil {
		site.FieldVar = field
		return
	}
	if local != nil {
		b.timerVars[local] = site
	}
}

// checkForeverLoop flags `for { ... }` bodies with no way out: no
// return, break, goto, channel receive, select, or panic — a goroutine
// parked in one can never be stopped or collected.
func (b *sumBuilder) checkForeverLoop(s *ast.ForStmt) {
	if s.Cond != nil || b.sum.ForeverLoop != 0 {
		return
	}
	escapes := false
	ast.Inspect(s.Body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt, *ast.SelectStmt:
			escapes = true
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				escapes = true
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW { // channel receive
				escapes = true
				return false
			}
		case *ast.RangeStmt:
			// range over a channel blocks until close — treat as a stop path.
			if _, isChan := b.pkg.TypesInfo.Types[n.X].Type.Underlying().(*types.Chan); isChan {
				escapes = true
				return false
			}
		case *ast.CallExpr:
			if fn := callee(b.pkg.TypesInfo, n); fn != nil && fn.Name() == "panic" {
				escapes = true
				return false
			}
		}
		return true
	})
	if !escapes {
		b.sum.ForeverLoop = s.Pos()
	}
}

// --- module-wide fixpoints ---

// propagateSanitizers folds callee verify/expiry sites upward: a call
// to a function that verifies (or checks expiry) counts as doing so at
// the call site. Runs to fixpoint so helper chains compose.
func (m *Module) propagateSanitizers() {
	for i := 0; i < 10; i++ {
		changed := false
		for _, n := range m.graph.Nodes {
			sum := m.sums[n]
			verifies := append([]token.Pos(nil), sum.ownVerifies...)
			expiries := append([]token.Pos(nil), sum.ownExpiries...)
			for _, op := range sum.Ops {
				if op.Kind != OpCall {
					continue
				}
				for _, t := range op.Targets {
					ts := m.sums[t]
					if ts == nil {
						continue
					}
					if len(ts.verifies) > 0 {
						verifies = append(verifies, op.Pos)
						break
					}
				}
				for _, t := range op.Targets {
					ts := m.sums[t]
					if ts == nil {
						continue
					}
					if len(ts.expiries) > 0 {
						expiries = append(expiries, op.Pos)
						break
					}
				}
			}
			if len(verifies) != len(sum.verifies) || len(expiries) != len(sum.expiries) {
				changed = true
			}
			sum.verifies, sum.expiries = verifies, expiries
			sum.Sanitizes = len(verifies) > 0 && len(expiries) > 0
		}
		if !changed {
			return
		}
	}
}

// propagateTaint computes ReturnsTainted module-wide: a function
// returns taint if some return value derives from a decode source or a
// call to another tainted-returning, non-sanitizing function.
func (m *Module) propagateTaint() {
	for i := 0; i < 20; i++ {
		changed := false
		for _, n := range m.graph.Nodes {
			sum := m.sums[n]
			if sum.ReturnsTainted {
				continue
			}
			ti := m.taintWalk(n)
			if ti.returnsTainted {
				sum.ReturnsTainted = true
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// taintInfo is the result of one intra-function taint walk.
type taintInfo struct {
	m    *Module
	node *FuncNode
	// vars holds local objects bound to tainted values.
	vars           map[types.Object]bool
	returnsTainted bool
}

// taintWalk runs the intra-function taint propagation for node using
// the module's current ReturnsTainted/Sanitizes facts.
func (m *Module) taintWalk(node *FuncNode) *taintInfo {
	ti := &taintInfo{m: m, node: node, vars: make(map[types.Object]bool)}
	// A few passes let taint flow through later-read locals and loops.
	for pass := 0; pass < 4; pass++ {
		before := len(ti.vars)
		returns := ti.returnsTainted
		ast.Inspect(node.Body, func(an ast.Node) bool {
			switch n := an.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				ti.assign(n)
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, name := range n.Names {
						if ti.tainted(n.Values[i]) {
							ti.mark(ti.obj(name))
						}
					}
				}
			case *ast.RangeStmt:
				if ti.tainted(n.X) {
					if id, ok := n.Key.(*ast.Ident); ok {
						ti.mark(ti.obj(id))
					}
					if id, ok := n.Value.(*ast.Ident); ok {
						ti.mark(ti.obj(id))
					}
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if ti.tainted(r) {
						ti.returnsTainted = true
					}
				}
			}
			return true
		})
		if len(ti.vars) == before && returns == ti.returnsTainted {
			break
		}
	}
	return ti
}

func (ti *taintInfo) obj(id *ast.Ident) types.Object {
	info := ti.node.Pkg.TypesInfo
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

func (ti *taintInfo) mark(o types.Object) {
	if o != nil {
		ti.vars[o] = true
	}
}

func (ti *taintInfo) assign(s *ast.AssignStmt) {
	markLhs := func(lhs ast.Expr) {
		if id, ok := lhs.(*ast.Ident); ok {
			ti.mark(ti.obj(id))
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i, lhs := range s.Lhs {
			if ti.tainted(s.Rhs[i]) {
				markLhs(lhs)
			}
		}
		return
	}
	// v, err := source(): one tainted rhs taints every lhs.
	if len(s.Rhs) == 1 && ti.tainted(s.Rhs[0]) {
		for _, lhs := range s.Lhs {
			markLhs(lhs)
		}
	}
}

// tainted reports whether an expression derives from externally
// decoded bytes under the module's current facts.
func (ti *taintInfo) tainted(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return ti.vars[ti.obj(e)]
	case *ast.CallExpr:
		return ti.callTainted(e)
	case *ast.SelectorExpr:
		return ti.tainted(e.X)
	case *ast.UnaryExpr:
		return ti.tainted(e.X)
	case *ast.StarExpr:
		return ti.tainted(e.X)
	case *ast.IndexExpr:
		return ti.tainted(e.X)
	case *ast.SliceExpr:
		return ti.tainted(e.X)
	case *ast.TypeAssertExpr:
		return ti.tainted(e.X)
	case *ast.BinaryExpr:
		return ti.tainted(e.X) || ti.tainted(e.Y)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if ti.tainted(kv.Value) {
					return true
				}
				continue
			}
			if ti.tainted(el) {
				return true
			}
		}
	}
	return false
}

func (ti *taintInfo) callTainted(call *ast.CallExpr) bool {
	m, pkg := ti.m, ti.node.Pkg
	targets := m.graph.resolveCall(pkg, call, nil)
	for _, t := range targets {
		if s := m.sums[t]; s != nil && s.Sanitizes {
			return false // a sanitizer's output is trusted
		}
	}
	if rootTaintSource(pkg.TypesInfo, call) {
		return true
	}
	for _, t := range targets {
		if s := m.sums[t]; s != nil && s.ReturnsTainted {
			return true
		}
	}
	// DOM navigation: a method call on a tainted receiver yields a
	// tainted piece of the same document (root.Child("tnSession")).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if ti.tainted(sel.X) {
			return true
		}
	}
	return false
}

// rootTaintSource matches the decode functions where external bytes
// enter: XML parsing (every xmldom.Parse* entry point and the Reader's
// constructors, whose Node, Attr and Text hand out pieces of what they
// read), base64 decoding, and raw body reads.
func rootTaintSource(info *types.Info, call *ast.CallExpr) bool {
	fn := callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	switch {
	case pkgPathHasSuffix(path, "xmldom") && fn.Type().(*types.Signature).Recv() == nil &&
		(strings.HasPrefix(fn.Name(), "Parse") || strings.HasPrefix(fn.Name(), "New") && strings.HasSuffix(fn.Name(), "Reader")):
		return true
	case path == "encoding/base64" && strings.Contains(fn.Name(), "Decode"):
		return true
	case path == "io" && fn.Name() == "ReadAll":
		return true
	}
	return false
}
