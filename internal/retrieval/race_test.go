//go:build race

package retrieval

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
