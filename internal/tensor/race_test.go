//go:build race

package tensor

// raceEnabled reports a -race build, where sync.Pool drops pooled items
// at random and allocation counts stop being deterministic.
const raceEnabled = true
