//go:build !race

package kg

const raceEnabled = false
