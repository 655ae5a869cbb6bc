//go:build !race

package index

// raceEnabled reports whether the race detector is compiled in.
// AllocsPerRun assertions are skipped under -race: sync.Pool drops entries
// at random there.
const raceEnabled = false
