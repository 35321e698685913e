package flow

import (
	"context"

	"tpilayout/internal/netlist"
)

// CriticalNets implements the preparation step of the Section 5
// discussion: run the flow once without test points, take the nets along
// each clock domain's critical path, and return them as a TPI exclusion
// set. Cell and net IDs are stable across the flow's internal clone, so
// the returned set applies directly to the original design.
func CriticalNets(design *netlist.Netlist, cfg Config) (map[netlist.NetID]bool, error) {
	base := cfg
	base.TPPercent = 0
	base.ExcludeNets = nil
	base.SkipATPG = true
	r, err := RunContext(context.Background(), design, base)
	if err != nil {
		return nil, err
	}
	ex := make(map[netlist.NetID]bool)
	for _, rep := range r.STA.PerDomain {
		for _, ci := range rep.PathCells {
			if int(ci) >= len(design.Cells) {
				continue // cell added by the DfT/CTS passes, not in the design
			}
			if out := r.Netlist.Cells[ci].Out; out != netlist.NoNet {
				ex[out] = true
			}
		}
	}
	return ex, nil
}
