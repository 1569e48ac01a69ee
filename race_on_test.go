//go:build race

package repro

// raceEnabled reports that this binary was built with -race, whose
// instrumentation changes what every operation allocates.
const raceEnabled = true
