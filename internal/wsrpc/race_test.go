//go:build race

package wsrpc

// The race detector makes sync.Pool drop items at random and changes
// allocation counts, so the allocation guards hold only without it.
func init() { raceEnabled = true }
