//go:build !race

package serve

// Full training budget for the shared test model; see race_test.go for
// why race builds use a shorter one.
const testTrainSteps = 400_000

// raceEnabled: see race_test.go.
const raceEnabled = false
