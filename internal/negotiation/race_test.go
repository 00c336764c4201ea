//go:build race

package negotiation

// The race detector makes sync.Pool drop items at random, so the
// allocation guards over pooled writers hold only without it.
func init() { raceEnabled = true }
