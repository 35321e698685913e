//go:build race

package atpg

// raceEnabled reports a -race build. The SAT engine is single-goroutine,
// so its slowest checks run on fewer circuits there.
const raceEnabled = true
