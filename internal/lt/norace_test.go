//go:build !race

package lt

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
