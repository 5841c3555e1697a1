//go:build !race

package core

// raceEnabled gates allocation assertions: the race detector's
// instrumentation allocates, so allocs/op pins only hold in pure builds.
const raceEnabled = false
