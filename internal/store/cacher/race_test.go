//go:build race

package cacher

// The race detector's instrumentation changes allocation counts, so the
// allocation guards hold only without it.
func init() { raceEnabled = true }
