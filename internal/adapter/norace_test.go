//go:build !race

package adapter_test

const raceEnabled = false
