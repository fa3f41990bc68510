//go:build !race

package main

// raceEnabled reports whether the race detector instruments this build;
// the smoke test's time limit skips itself under it.
const raceEnabled = false
