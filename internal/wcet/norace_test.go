//go:build !race

package wcet

const raceEnabled = false
