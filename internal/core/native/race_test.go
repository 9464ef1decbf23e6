//go:build race

package native_test

// raceEnabled reports whether the race detector is on; it changes
// allocation, so allocation guards skip under it.
const raceEnabled = true
