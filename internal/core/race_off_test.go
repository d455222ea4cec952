//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build.
// The sparse = dense differential trims its cases under -race: the
// detector slows them tenfold, and one seed of the small cases already
// covers every worker count.
const raceEnabled = false
