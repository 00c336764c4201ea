package pki

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

func issueTestCred(t *testing.T, ca *Authority, typ string) *xtnl.Credential {
	t.Helper()
	c, err := ca.Issue(IssueRequest{Type: typ, Holder: "Holder"})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestVerifyCacheHitSkipsRecompute(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	cred := issueTestCred(t, ca, "Badge")
	now := time.Now()

	if err := ts.Verify(cred, now); err != nil {
		t.Fatal(err)
	}
	if err := ts.Verify(cred, now); err != nil {
		t.Fatal(err)
	}
	st := ts.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after two verifies: %+v", st)
	}
}

func TestVerifyCacheRejectsTamperedContent(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	cred := issueTestCred(t, ca, "Badge")
	now := time.Now()
	if err := ts.Verify(cred, now); err != nil {
		t.Fatal(err)
	}
	// Same genuine signature, different content: must NOT ride the
	// cached success past verification.
	tampered := cred.Clone()
	tampered.SetAttr("granted", "everything")
	if err := ts.Verify(tampered, now); err == nil {
		t.Fatal("tampered credential verified via cache")
	}
	// And the original still verifies.
	if err := ts.Verify(cred, now); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCacheInvalidatedByCRL(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	cred := issueTestCred(t, ca, "Badge")
	now := time.Now()
	if err := ts.Verify(cred, now); err != nil {
		t.Fatal(err)
	}
	ca.Revoke(cred.ID)
	if err := ts.AddCRL(ca.CRL()); err != nil {
		t.Fatal(err)
	}
	if err := ts.Verify(cred, now); err == nil {
		t.Fatal("revoked credential verified via stale cache")
	}
	if st := ts.CacheStats(); st.Invalidations == 0 {
		t.Fatalf("AddCRL did not invalidate: %+v", st)
	}
}

func TestVerifyCacheRespectsExpiryOnHit(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	cred := issueTestCred(t, ca, "Badge")
	now := time.Now()
	if err := ts.Verify(cred, now); err != nil {
		t.Fatal(err)
	}
	// The cached success must not outlive the validity window.
	past := cred.ValidUntil.Add(time.Hour)
	if err := ts.Verify(cred, past); err == nil {
		t.Fatal("expired credential verified via cache")
	}
}

func TestVerifyChainCachedWithChain(t *testing.T) {
	root := MustNewAuthority("Root")
	sub := MustNewAuthority("Sub")
	ts := NewTrustStore(root)
	del, err := root.Delegate(sub, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := sub.Issue(IssueRequest{Type: "Badge", Holder: "H"})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	pool := []*xtnl.Credential{del}
	chain1, err := ts.VerifyChain(cred, pool, now)
	if err != nil {
		t.Fatal(err)
	}
	// Second call hits the cache and returns the same chain — even with
	// an empty pool, since the chain was already proven.
	chain2, err := ts.VerifyChain(cred, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain1) != 1 || len(chain2) != 1 || chain2[0].ID != chain1[0].ID {
		t.Fatalf("chains differ: %v vs %v", chain1, chain2)
	}
	if st := ts.CacheStats(); st.Hits == 0 {
		t.Fatalf("no cache hit recorded: %+v", st)
	}
}

func TestVerifyCacheDisabled(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	ts.DisableCache = true
	cred := issueTestCred(t, ca, "Badge")
	now := time.Now()
	for i := 0; i < 3; i++ {
		if err := ts.Verify(cred, now); err != nil {
			t.Fatal(err)
		}
	}
	if st := ts.CacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
}

func TestVerifyCacheConcurrent(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	creds := make([]*xtnl.Credential, 8)
	for i := range creds {
		creds[i] = issueTestCred(t, ca, "Badge")
	}
	now := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := ts.Verify(creds[(g+i)%len(creds)], now); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := ts.CacheStats()
	if st.Hits == 0 || st.Hits+st.Misses != 400 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestVerifyCacheDetachesDecodedCredential: a credential decoded from a
// message shares the message's memory, so the cache entry must hold
// copies of its strings rather than keep the message alive.
func TestVerifyCacheDetachesDecodedCredential(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	issued := issueTestCred(t, ca, "Badge")
	cred, err := xtnl.ParseCredential(issued.XML())
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Verify(cred, time.Now()); err != nil {
		t.Fatal(err)
	}
	e, ok := ts.cache.lookup(cacheKey(cred))
	if !ok {
		t.Fatal("verified credential not cached")
	}
	shares := func(a, b string) bool { return len(a) > 0 && unsafe.StringData(a) == unsafe.StringData(b) }
	if shares(e.cred.Type, cred.Type) || shares(e.cred.Issuer, cred.Issuer) || shares(e.cred.ID, cred.ID) {
		t.Fatal("cache entry shares memory with the decoded credential")
	}
	if e.cred.Type != cred.Type || e.cred.Issuer != cred.Issuer || e.cred.ID != cred.ID {
		t.Fatalf("cached copy differs: %+v vs %+v", e.cred, cred)
	}
}

// TestVerifyCacheHitAllocatesNothing: a hit looks its entry up by an
// array key, compares the presented credential with the signed bytes as
// it writes them, and hands back the entry's condition tree, so a
// credential decoded from a message verifies again without allocating.
// The tree is the credential's document, built once from the entry's
// own copy: it shares no memory with the message, and a second
// credential with the same content gets the same tree.
func TestVerifyCacheHitAllocatesNothing(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	issued, err := ca.Issue(IssueRequest{Type: "Badge", Holder: "Holder",
		Attributes: []xtnl.Attribute{{Name: "level", Value: "gold"}}})
	if err != nil {
		t.Fatal(err)
	}
	wire := issued.XML()
	cred, err := xtnl.ParseCredential(wire)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	_, dom, err := ts.VerifyChainDOM(cred, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if dom.XML() != wire {
		t.Fatalf("condition tree %s, want the credential %s", dom.XML(), wire)
	}
	within := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		b := uintptr(unsafe.Pointer(unsafe.StringData(wire)))
		return s != "" && p >= b && p < b+uintptr(len(wire))
	}
	dom.Walk(func(n *xmldom.Node) bool {
		if within(n.Name) || within(n.Data) {
			t.Fatalf("condition tree node %q %q shares memory with the message", n.Name, n.Data)
		}
		return true
	})
	again, _ := xtnl.ParseCredential(wire)
	if _, dom2, err := ts.VerifyChainDOM(again, nil, now); err != nil || dom2 != dom {
		t.Fatalf("second credential: tree %p (err %v), want the entry's %p", dom2, err, dom)
	}

	if raceEnabled {
		t.Skip("allocation guards run without the race detector")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := ts.Verify(cred, now); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Verify hit allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := ts.VerifyChainDOM(cred, nil, now); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("VerifyChainDOM hit allocates %.1f times, want 0", allocs)
	}
}

// TestVerifyCacheRejectsTamperedContentOnTreePath: the tree-returning
// entry point binds its hit to the signed bytes as Verify does.
func TestVerifyCacheRejectsTamperedContentOnTreePath(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	cred := issueTestCred(t, ca, "Badge")
	now := time.Now()
	if _, _, err := ts.VerifyChainDOM(cred, nil, now); err != nil {
		t.Fatal(err)
	}
	tampered := cred.Clone()
	tampered.SetAttr("granted", "everything")
	if _, dom, err := ts.VerifyChainDOM(tampered, nil, now); err == nil {
		t.Fatalf("tampered credential verified via cache, tree %s", dom.XML())
	}
}

// TestVerifyChainDOMConcurrent: goroutines verifying one cached
// credential at once race to build the entry's tree, must all get the
// one that won, and evaluate a condition over it; under -race this
// finds any write to the shared tree.
func TestVerifyChainDOMConcurrent(t *testing.T) {
	ca := MustNewAuthority("CA")
	ts := NewTrustStore(ca)
	cred, err := ca.Issue(IssueRequest{Type: "Badge", Holder: "Holder",
		Attributes: []xtnl.Attribute{{Name: "level", Value: "gold"}}})
	if err != nil {
		t.Fatal(err)
	}
	term := xtnl.Term{CredType: "Badge", Conditions: []string{"/credential/content/level='gold'"}}
	now := time.Now()
	if err := ts.Verify(cred, now); err != nil { // an entry, not yet with a tree
		t.Fatal(err)
	}
	trees := make([]*xmldom.Node, 8)
	var wg sync.WaitGroup
	for g := range trees {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, dom, err := ts.VerifyChainDOM(cred, nil, now)
				if err != nil || !term.SatisfiedByDOM(cred, dom) {
					t.Errorf("goroutine %d: %v, term satisfied %v", g, err, err == nil && term.SatisfiedByDOM(cred, dom))
					return
				}
				trees[g] = dom
			}
		}(g)
	}
	wg.Wait()
	for _, dom := range trees[1:] {
		if dom != trees[0] {
			t.Fatal("goroutines got different trees for one entry")
		}
	}
}
