//go:build race

package serve

// The race detector slows the Hogwild training loop by two orders of
// magnitude (every embedding access is instrumented), so the shared
// test model would take >10min to train and time out the suite. The
// race runs exist to exercise the serving stack's synchronization, not
// the trainer's convergence — a shorter budget covers the same paths.
const testTrainSteps = 20_000

// raceEnabled skips the allocation gates: the race runtime allocates.
const raceEnabled = true
