//go:build race

package harness_test

// raceEnabled reports that the race detector is compiled in: the runtime
// then allocates on the test's behalf and runs ~8× slower, so the
// allocation budget is skipped and the schedule goldens run their
// many-worker leg only.
const raceEnabled = true
