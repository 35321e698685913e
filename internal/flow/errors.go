package flow

import (
	"errors"
	"fmt"
	"strings"

	"tpilayout/internal/supervise"
)

// StageError is the typed failure of one flow stage: which stage failed,
// at which test-point level, and why. Every error RunContext returns
// wraps the underlying cause in a StageError, so callers can dispatch
// with errors.As:
//
//	var se *flow.StageError
//	if errors.As(err, &se) && se.Stage == flow.StageATPG { ... }
//
// A panic inside a stage is converted into a StageError whose Err is a
// *supervise.PanicError and whose Stack holds the panicking goroutine's
// stack — the process never crashes and sibling sweep workers are not
// poisoned.
type StageError struct {
	// Stage names the flow step that failed (one of the Stage* constants).
	Stage string
	// TPPercent is the test-point level of the failing run.
	TPPercent float64
	// Err is the underlying cause; context.Canceled / context.
	// DeadlineExceeded surface here on cancellation.
	Err error
	// Stack is the captured goroutine stack when the failure was a
	// recovered panic, nil otherwise.
	Stack []byte
}

// Stage names used in StageError.Stage, in flow order.
const (
	StageConfig  = "config"
	StageTPI     = "TPI"
	StageScan    = "scan"
	StagePlace   = "place"
	StageATPG    = "atpg"
	StageCTS     = "cts"
	StageECO     = "eco"
	StageRoute   = "route"
	StageExtract = "extract"
	StageSTA     = "sta"
	// StageSweep marks a failure in the sweep machinery itself, outside
	// any single flow stage (e.g. a panic while cloning the design).
	StageSweep = "sweep"
	// StageRun is not an error stage: it names the telemetry span that
	// wraps one whole flow run (one sweep level), under which the stage
	// spans above nest.
	StageRun = "run"
)

func (e *StageError) Error() string {
	return fmt.Sprintf("flow: %s (at %g%% TPs): %v", e.Stage, e.TPPercent, e.Err)
}

// Unwrap exposes the cause to errors.Is/As chains.
func (e *StageError) Unwrap() error { return e.Err }

// newStageError wraps err for a stage, hoisting a recovered panic's stack
// into the StageError.
func newStageError(stage string, tpPercent float64, err error) *StageError {
	se := &StageError{Stage: stage, TPPercent: tpPercent, Err: err}
	var pe *supervise.PanicError
	if errors.As(err, &pe) {
		se.Stack = pe.Stack
	}
	return se
}

// Validate checks a Config for parameter values that have no defined
// meaning anywhere downstream. It reports every violation in a single
// descriptive error (nil when the config is usable) so a caller fixing a
// config sees the whole list at once, not one complaint per run.
func (c *Config) Validate() error {
	var bad []string
	if c.TPPercent < 0 || c.TPPercent > 100 {
		bad = append(bad, fmt.Sprintf("TPPercent %g outside [0,100]", c.TPPercent))
	}
	if c.Workers < 0 {
		bad = append(bad, fmt.Sprintf("Workers %d negative (0 = GOMAXPROCS)", c.Workers))
	}
	if c.Place.TargetUtilization <= 0 || c.Place.TargetUtilization > 1 {
		bad = append(bad, fmt.Sprintf("place.TargetUtilization %g outside (0,1]", c.Place.TargetUtilization))
	}
	if c.TimingOptRounds < 0 {
		bad = append(bad, fmt.Sprintf("TimingOptRounds %d negative", c.TimingOptRounds))
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("flow: invalid config: %s", strings.Join(bad, "; "))
}
