//go:build race

package kg

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
