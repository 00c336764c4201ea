package xtnl

import (
	"strings"
	"sync"
	"sync/atomic"

	"trustvo/internal/xpath"
)

// Hot-path memoization for policy evaluation.
//
// Every (term, credential) pair a party considers during negotiation
// evaluates the term's XPath conditions against the credential's
// document. A compiled condition is a pure function of its source text,
// so conditions are compiled once, process-wide, here. Documents are
// not memoized here: a party's own credentials keep theirs in the
// Profile's DOM cache, and a received credential's document is built per
// check, from slabs (xmldom.Tree), and evaluated with one state per
// condition. Building the own credentials' documents per check as well
// measured more allocated bytes per join than the cache costs
// (EXPERIMENTS.md EXT-23), so the Profile cache stays.

// condCacheLimit bounds the compiled-condition memo. Conditions arrive
// in counterpart policies, so an unbounded map would let an adversary
// grow memory one unique XPath string at a time. A full memo is replaced
// by an empty one, so the conditions in use after that point are cached
// again rather than recompiled on every evaluation.
const condCacheLimit = 4096

// condMemo is one generation of the compiled-condition memo.
type condMemo struct {
	exprs sync.Map // condition source -> *xpath.Expr
	size  atomic.Int64
}

var condCache atomic.Pointer[condMemo]

func init() { condCache.Store(new(condMemo)) }

// compileCondition returns the compiled form of one XPath condition,
// memoizing successes. Compiled expressions are immutable, so sharing
// one across goroutines is safe.
func compileCondition(src string) (*xpath.Expr, error) {
	memo := condCache.Load()
	if v, ok := memo.exprs.Load(src); ok {
		return v.(*xpath.Expr), nil
	}
	// The memo outlives the policy the condition came from; a parsed
	// condition is a substring of that whole message (see package xmldom).
	src = strings.Clone(src)
	e, err := xpath.Compile(src)
	if err != nil {
		return nil, err
	}
	if memo.size.Add(1) > condCacheLimit {
		condCache.CompareAndSwap(memo, new(condMemo))
		memo = condCache.Load()
		memo.size.Add(1)
	}
	if v, loaded := memo.exprs.LoadOrStore(src, e); loaded {
		return v.(*xpath.Expr), nil
	}
	return e, nil
}
