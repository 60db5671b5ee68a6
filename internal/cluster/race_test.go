//go:build race

package cluster

// raceEnabled reports whether the race detector is on, which slows graph
// construction about tenfold.
const raceEnabled = true
