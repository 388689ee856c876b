//go:build race

package trace

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Puts by design, so pooled-byte budgets cannot hold.
const raceEnabled = true
