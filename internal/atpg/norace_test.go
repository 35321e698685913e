//go:build !race

package atpg

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
