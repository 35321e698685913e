package flow

import (
	"fmt"

	"tpilayout/internal/netlist"
	"tpilayout/internal/tpi"
)

// SweepMode selects how a sweep schedules its levels.
//
// Both modes produce bit-identical Tables 1–3 for every level: the
// incremental engine reuses only exactness-preserving artifacts (the TPI
// prefix via tpi.Resume and the prewarmed derived caches via the
// incremental re-levelizer), and deliberately re-runs the physical
// stages (placement, CTS, routing, extraction, STA) in full per level —
// reusing a prior level's placement through ECO legalization would
// produce valid but non-identical layouts, and this repo prefers exact
// over a documented tolerance. What changes between the modes is
// scheduling and wall-clock time only.
type SweepMode int

const (
	// SweepFull is the default oracle path: every level runs the complete
	// Figure 2 flow from the pristine prewarmed base, and levels fan out
	// across Config.Workers.
	SweepFull SweepMode = iota
	// SweepIncremental serializes the levels in ascending test-point
	// order and threads each level's artifacts into the next: level N+1
	// resumes TPI from level N's inserted points and re-levelizes only
	// the edited fanout cones. The worker pool applies inside each level
	// (fault-simulation shards), not across levels.
	SweepIncremental
)

// ParseSweepMode parses the -sweep-mode flag values. The empty string
// means SweepFull.
func ParseSweepMode(s string) (SweepMode, error) {
	switch s {
	case "", "full":
		return SweepFull, nil
	case "incremental", "incr":
		return SweepIncremental, nil
	}
	return SweepFull, fmt.Errorf("flow: unknown sweep mode %q (want full or incremental)", s)
}

func (m SweepMode) String() string {
	switch m {
	case SweepFull:
		return "full"
	case SweepIncremental:
		return "incremental"
	}
	return fmt.Sprintf("SweepMode(%d)", int(m))
}

// LevelArtifacts is the opaque handle threading one sweep level's
// reusable state into the next: the post-TPI netlist snapshot (taken
// before scan insertion, prewarmed so the next level's clone shares its
// derived caches), the inserted test points for tpi.Resume, and the
// base flip-flop count the TP budget is computed from. Handles are
// produced and consumed by RunLevelChained; they are immutable once
// returned.
type LevelArtifacts struct {
	netlist *netlist.Netlist
	tps     *tpi.Result
	baseFF  int
	tpCount int
}

// TPCount reports how many test points the artifact's netlist already
// contains (the resume prefix available to the next level).
func (a *LevelArtifacts) TPCount() int {
	if a == nil {
		return 0
	}
	return a.tpCount
}

// chainState carries the incremental-sweep plumbing through one
// runInPlace call: the inbound artifacts (nil for a cold start) and the
// outbound artifacts captured right after the TPI stage.
type chainState struct {
	in  *LevelArtifacts
	out *LevelArtifacts
}
