//go:build race

package core

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions skip themselves under it.
const raceEnabled = true
