//go:build race

package partydb

// The race detector changes allocation counts, so the allocation guard
// holds only without it.
func init() { raceEnabled = true }
