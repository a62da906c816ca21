//go:build race

package daemon

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
