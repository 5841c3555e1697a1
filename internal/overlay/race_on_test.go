//go:build race

package overlay

// raceEnabled gates allocation assertions: the race detector's
// instrumentation allocates, so allocs/op pins only hold in pure builds.
const raceEnabled = true
