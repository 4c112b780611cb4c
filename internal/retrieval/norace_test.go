//go:build !race

package retrieval

const raceEnabled = false
