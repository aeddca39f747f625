//go:build race

package core

// raceEnabled reports that the race detector is compiled in: the runtime
// then allocates on the test's behalf, so exact allocation counts are
// skipped.
const raceEnabled = true
