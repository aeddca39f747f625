//go:build race

package wal

// raceEnabled reports that the race detector is compiled in: the runtime
// then allocates on the test's behalf, so the allocation budget is skipped.
const raceEnabled = true
