//go:build race

package wcet

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so pooled buffers allocate again.
const raceEnabled = true
