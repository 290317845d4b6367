//go:build !race

package pixel

// raceEnabled: see race_test.go.
const raceEnabled = false
