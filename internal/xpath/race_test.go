//go:build race

package xpath

// The allocation guards run only without the race detector, as the
// module's other allocation guards do.
func init() { raceEnabled = true }
