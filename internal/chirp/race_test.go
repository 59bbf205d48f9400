//go:build race

package chirp

// raceEnabled reports that the race detector is on. It allocates on its
// own account, so the allocation-budget tests skip under it.
const raceEnabled = true
