//go:build race

package lt

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of what it is given, so allocation counts do not hold there.
const raceEnabled = true
