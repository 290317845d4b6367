//go:build !race

package journal

// raceEnabled: see race_test.go.
const raceEnabled = false
