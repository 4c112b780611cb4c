//go:build !race

package multirag

const raceEnabled = false
