//go:build !race

package replsys

const raceEnabled = false
