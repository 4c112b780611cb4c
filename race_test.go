//go:build race

package multirag

// raceEnabled reports a -race build, whose instrumentation changes heap
// sizes.
const raceEnabled = true
