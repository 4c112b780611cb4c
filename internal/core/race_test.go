//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
