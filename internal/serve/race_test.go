//go:build race

package serve

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates on its own, so the allocation pins only run
// in regular test builds.
const raceEnabled = true
