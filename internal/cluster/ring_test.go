package cluster

import (
	"fmt"
	"testing"
)

func TestRingOwnershipDeterministicAndTotal(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"n1", "n2", "n3"} {
		r.Add(n)
	}
	keys := make([]string, 200)
	owners := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("session-%03d", i)
		owners[i] = r.Owner(keys[i])
		if owners[i] == "" {
			t.Fatalf("key %s unowned", keys[i])
		}
	}
	// A second ring with the same membership agrees on every key.
	r2 := NewRing(0)
	for _, n := range []string{"n3", "n1", "n2"} { // insertion order must not matter
		r2.Add(n)
	}
	for i, k := range keys {
		if got := r2.Owner(k); got != owners[i] {
			t.Fatalf("rings disagree on %s: %s vs %s", k, owners[i], got)
		}
	}
	// Each node owns a nontrivial share (virtual nodes balance arcs).
	byOwner := map[string]int{}
	for _, o := range owners {
		byOwner[o]++
	}
	for _, n := range []string{"n1", "n2", "n3"} {
		if byOwner[n] < 20 {
			t.Fatalf("node %s owns only %d/200 keys: %v", n, byOwner[n], byOwner)
		}
	}
}

func TestRingSuccessorBecomesOwnerOnRemoval(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"n1", "n2", "n3"} {
		r.Add(n)
	}
	type pair struct{ owner, succ string }
	before := map[string]pair{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i)
		before[k] = pair{r.Owner(k), r.Successor(k)}
		if before[k].owner == before[k].succ {
			t.Fatalf("successor equals owner for %s", k)
		}
	}
	r.Remove("n2")
	for k, p := range before {
		if p.owner != "n2" {
			// Keys not owned by the removed node keep their owner.
			if got := r.Owner(k); got != p.owner {
				t.Fatalf("unrelated key %s moved: %s -> %s", k, p.owner, got)
			}
			continue
		}
		// The failover rule: the old successor is the new owner, so the
		// node holding the standby copy is the node that takes over.
		if got := r.Owner(k); got != p.succ {
			t.Fatalf("key %s: owner n2 removed, expected successor %s, got %s", k, p.succ, got)
		}
	}
	// Removal is idempotent; re-adding restores the original assignment.
	r.Remove("n2")
	r.Add("n2")
	for k, p := range before {
		if got := r.Owner(k); got != p.owner {
			t.Fatalf("key %s not restored after re-add: %s vs %s", k, got, p.owner)
		}
	}
}

func TestRingOwnerNDistinct(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"a", "b", "c", "d"} {
		r.Add(n)
	}
	owners := r.OwnerN("some-key", 4)
	if len(owners) != 4 {
		t.Fatalf("OwnerN returned %v", owners)
	}
	seen := map[string]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatalf("duplicate node in OwnerN: %v", owners)
		}
		seen[o] = true
	}
	if more := r.OwnerN("some-key", 10); len(more) != 4 {
		t.Fatalf("OwnerN beyond membership: %v", more)
	}
	if empty := NewRing(0).OwnerN("k", 2); empty != nil {
		t.Fatalf("empty ring OwnerN = %v", empty)
	}
}

// TestRingLookupsMatchOwnerN: Owner and Successor answer what OwnerN's
// first two entries say, on rings of 0 to 4 nodes, and allocate nothing:
// every exchange routes through Owner and every ship through Successor.
func TestRingLookupsMatchOwnerN(t *testing.T) {
	r := NewRing(0)
	for size, node := range []string{"", "a", "b", "c", "d"} {
		if node != "" {
			r.Add(node)
		}
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("key-%d-%d", size, i)
			want := append(r.OwnerN(key, 2), "", "")
			if got := r.Owner(key); got != want[0] {
				t.Fatalf("%d nodes, %s: Owner = %q, OwnerN = %v", size, key, got, want[:2])
			}
			if got := r.Successor(key); got != want[1] {
				t.Fatalf("%d nodes, %s: Successor = %q, OwnerN = %v", size, key, got, want[:2])
			}
		}
		if allocs := testing.AllocsPerRun(100, func() {
			_ = r.Owner("session-id")
			_ = r.Successor("session-id")
		}); allocs != 0 {
			t.Errorf("%d nodes: Owner and Successor allocate %.1f times, want 0", size, allocs)
		}
	}
}
