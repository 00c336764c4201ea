// Package cluster shards the trust-negotiation service across nodes: a
// consistent-hash ring routes each negotiation session to one owner,
// sealed standby ships carry sessions off dying or draining nodes, and
// WAL-shipping replication keeps follower copies of the document store
// so a follower can be promoted with no acknowledged write lost. Every
// cross-node call runs through the wsrpc hardened transport (deadlines,
// retries, breaker), and the whole package is driven deterministically
// by the chaos harness in chaos_test.go.
package cluster

import (
	"slices"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring mapping keys (session ids, store keys)
// to node names. Each node projects VirtualNodes points onto the ring;
// a key is owned by the first node point at or clockwise of the key's
// hash. Removing a node hands each of its arcs to the next point — the
// successor — which is exactly the failover rule: the node that held a
// dead owner's standby state is the node that now owns its sessions.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	hashes []uint64
	owner  map[uint64]string
	nodes  map[string]bool
}

// DefaultVirtualNodes balances arc variance against lookup table size.
const DefaultVirtualNodes = 64

// NewRing creates an empty ring with vnodes points per node
// (DefaultVirtualNodes when <= 0).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{
		vnodes: vnodes,
		owner:  make(map[uint64]string),
		nodes:  make(map[string]bool),
	}
}

// hash64 is FNV-1a over s with an avalanche finalizer. Bare FNV maps
// strings that differ only in a trailing counter to nearby values, which
// on a ring means sequential keys pile into one arc; the mix spreads
// them uniformly.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func vnodeKey(node string, i int) string {
	// node + '#' + decimal index, avoiding fmt on a hot rebuild path
	buf := make([]byte, 0, len(node)+8)
	buf = append(buf, node...)
	buf = append(buf, '#')
	if i == 0 {
		buf = append(buf, '0')
	}
	var digits [8]byte
	n := 0
	for i > 0 {
		digits[n] = byte('0' + i%10)
		i /= 10
		n++
	}
	for n > 0 {
		n--
		buf = append(buf, digits[n])
	}
	return string(buf)
}

// Add inserts a node (idempotent).
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	r.rebuild()
}

// Remove deletes a node (idempotent); its arcs fall to the successors.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	r.rebuild()
}

// rebuild recomputes the point table. Caller holds r.mu. Rebuilding
// from scratch keeps hash collisions deterministic: points are inserted
// in sorted node order, and on a collision the first (lexicographically
// smallest) node wins on every view of the same membership.
func (r *Ring) rebuild() {
	r.owner = make(map[uint64]string, len(r.nodes)*r.vnodes)
	r.hashes = r.hashes[:0]
	names := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for i := 0; i < r.vnodes; i++ {
			h := hash64(vnodeKey(n, i))
			if _, taken := r.owner[h]; taken {
				continue
			}
			r.owner[h] = n
			r.hashes = append(r.hashes, h)
		}
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
}

// Nodes returns the member names, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Owner returns the node owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 {
		return ""
	}
	return r.owner[r.hashes[r.search(key)]]
}

// Successor returns the next distinct node clockwise of key's owner —
// the standby target for a session ("" with fewer than two nodes).
func (r *Ring) Successor(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 {
		return ""
	}
	start := r.search(key)
	owner := r.owner[r.hashes[start]]
	for i := 1; i < len(r.hashes); i++ {
		if node := r.owner[r.hashes[(start+i)%len(r.hashes)]]; node != owner {
			return node
		}
	}
	return ""
}

// OwnerN returns the first n distinct nodes clockwise from key's hash:
// owner first, then its successors in ring order.
func (r *Ring) OwnerN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	start := r.search(key)
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		node := r.owner[r.hashes[(start+i)%len(r.hashes)]]
		if seen[node] {
			continue
		}
		seen[node] = true
		out = append(out, node)
	}
	return out
}

// search returns the index of the first point at or clockwise of key's
// hash (caller holds r.mu; the ring is not empty).
func (r *Ring) search(key string) int {
	i, _ := slices.BinarySearch(r.hashes, hash64(key))
	return i % len(r.hashes)
}
