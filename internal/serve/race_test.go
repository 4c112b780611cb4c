//go:build race

package serve

// raceEnabled reports a -race build. Its sync.Pool drops a share of Puts on
// purpose, so allocation counts read higher there and vary.
const raceEnabled = true
