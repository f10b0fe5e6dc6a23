//go:build race

package cluster

// raceEnabled reports whether the race detector instruments this build;
// allocation-count tests skip under it, since instrumentation allocates.
const raceEnabled = true
