package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// credtaint taint-tracks raw credential/ticket/session bytes from their
// decode sites (every xmldom.Parse* entry point, base64 decode, raw body
// reads — composed transitively through functions that return such
// values) into trust decisions, and demands the flow be guarded by BOTH
// a signature verification and an expiry check, with expiry checked
// first. That is PR 6's migration-ticket invariant (expiry → 410 before
// the Verify so expired tickets are a typed, counted, cheap condition)
// generalized to every adoption path: a snapshot a peer POSTs at us
// must never enter the session table on its own say-so.
//
// The trust decision recognized today is TNService.AdoptSessionDoc —
// the one call that turns an externally supplied document into a live
// negotiation session. Guards may live in callees: a helper that
// verifies and expiry-checks (a "sanitizer") makes its result trusted.
//
// The sanitizer the module provides is pki's sealed document (Seal, and
// OpenWire, which checks a MAC with crypto/hmac's Equal), and it is
// meant to be the only one: a raw Ed25519 sign or verify, or a raw
// MAC, outside package pki (the Sign and Verify functions of
// crypto/ed25519, the New and Equal functions of crypto/hmac, or the
// Sign method of pki's KeyPair) is reported wherever it appears, so a
// new ticket format cannot bring its own signed bytes and its own
// check.
func credtaint() *Analyzer {
	a := &Analyzer{
		Name: "credtaint",
		Doc:  "externally decoded session/credential bytes must pass expiry + signature checks (in that order) before trust decisions; tickets are signed and verified only through pki.Seal/OpenWire",
	}
	a.RunModule = func(p *ModulePass) error {
		m := p.Module
		for _, n := range m.graph.Nodes {
			sum := m.sums[n]
			var sinks []*ast.CallExpr
			ast.Inspect(n.Body, func(an ast.Node) bool {
				if _, ok := an.(*ast.FuncLit); ok && an != n.Lit {
					return false
				}
				call, ok := an.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := callee(n.Pkg.TypesInfo, call)
				switch {
				case fn == nil:
				case fn.Name() == "AdoptSessionDoc":
					sinks = append(sinks, call)
				case !pkgPathHasSuffix(n.Pkg.Path, "pki"):
					if raw := rawSignature(fn); raw != "" {
						p.Reportf(call.Pos(), "%s outside package pki: sign and verify tickets through pki.Seal/OpenWire", raw)
					}
				}
				return true
			})
			if len(sinks) == 0 {
				continue
			}
			ti := m.taintWalk(n)
			for _, sink := range sinks {
				taintedArg := false
				for _, arg := range sink.Args {
					if ti.tainted(arg) {
						taintedArg = true
						break
					}
				}
				if !taintedArg {
					continue
				}
				verify := firstBefore(sum.verifies, sink.Pos())
				expiry := firstBefore(sum.expiries, sink.Pos())
				switch {
				case verify == 0:
					p.Reportf(sink.Pos(), "externally decoded session document reaches AdoptSessionDoc without signature verification")
				case expiry == 0:
					p.Reportf(sink.Pos(), "externally decoded session document reaches AdoptSessionDoc without an expiry check")
				case verify < expiry:
					p.Reportf(sink.Pos(), "signature verified before the expiry check on the path to AdoptSessionDoc; check expiry first so expired tickets stay a typed, cheap rejection")
				}
			}
		}
		return nil
	}
	return a
}

// rawSignature names fn when it signs, MACs or verifies raw bytes (the
// Sign and Verify functions of crypto/ed25519, the New and Equal
// functions of crypto/hmac, or the Sign method of a pki KeyPair) and
// returns "" for any other function.
func rawSignature(fn *types.Func) string {
	if isPkgFunc(fn, "crypto/ed25519", "Sign", "Verify") {
		return "ed25519." + fn.Name()
	}
	if isPkgFunc(fn, "crypto/hmac", "New", "Equal") {
		return "hmac." + fn.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || fn.Name() != "Sign" || !pkgPathHasSuffix(fn.Pkg().Path(), "pki") {
		return ""
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok && named.Obj().Name() == "KeyPair" {
		return "pki.KeyPair.Sign"
	}
	return ""
}

// firstBefore returns the smallest position in list strictly before
// limit (0 when none).
func firstBefore(list []token.Pos, limit token.Pos) token.Pos {
	var best token.Pos
	for _, p := range list {
		if p < limit && (best == 0 || p < best) {
			best = p
		}
	}
	return best
}
