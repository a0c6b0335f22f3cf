//go:build !race

package serve

// raceEnabled reports whether the race detector instruments this build;
// the allocation gates skip themselves when it does (its
// instrumentation allocates, and sync.Pool drops items at random).
const raceEnabled = false
