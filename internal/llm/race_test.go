//go:build race

package llm

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
