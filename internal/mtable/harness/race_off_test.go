//go:build !race

package harness_test

const raceEnabled = false
