// Package route is a congestion-aware global router over the placed
// design. Each net is decomposed into two-pin edges with a rectilinear
// minimum spanning tree; each edge is routed as an L-shape through a
// grid of routing cells, choosing the bend with less congestion and
// detouring (adding wire length) when a cell overflows. The total wire
// length it reports is the paper's L_wires column.
package route

import (
	"cmp"
	"context"
	"math"
	"slices"
	"time"

	"tpilayout/internal/netlist"
	"tpilayout/internal/place"
	"tpilayout/internal/telemetry"
)

// The congestion model.
const (
	// gcellSize is the routing grid pitch in µm.
	gcellSize = 20
	// capacity is the wire length (µm) a routing cell absorbs before it
	// counts as congested: 16 tracks × pitch.
	capacity = 16 * gcellSize
)

// Options configures the router.
type Options struct {
	// Telemetry, when non-nil, receives the routing counters
	// (route.nets, route.pins, route.overflows), the route.total_um
	// gauge, and the per-net route.net_ns / route.net_overflows
	// distributions on the routing stage's span. Nil costs nothing.
	Telemetry *telemetry.Span
}

// Result holds the routed wire lengths.
type Result struct {
	// NetLen is the routed length in µm per net (0 for dead/constant or
	// single-pin nets).
	NetLen []float64
	// Total is the summed wire length (the paper's L_wires).
	Total float64
	// Overflow counts routing-cell overflow events (a congestion
	// indicator; the paper notes too-high utilization "would lead to
	// routing congestions").
	Overflow int
}

type point struct{ x, y float64 }

// RouteContext globally routes every live multi-pin net of the placement
// under ctx, checked every few routed nets; the only possible error is
// the context's.
func RouteContext(ctx context.Context, p *place.Placement, opt Options) (*Result, error) {
	n := p.N
	res := &Result{NetLen: make([]float64, len(n.Nets))}
	g := newGrid(p)
	csr := n.CSR()

	// Deterministic net order: longer (higher-fanout) nets first, so the
	// big trunks claim uncongested space, then short nets fill in. Every
	// net's pins are one span [lo, hi) of a single buffer, sized up front
	// for a driver and every load of every live net.
	type job struct {
		id     netlist.NetID
		lo, hi int32
	}
	live := 0
	size := 0
	for id := range n.Nets {
		if nn := &n.Nets[id]; !nn.Dead && nn.Const < 0 {
			live++
			size += 1 + csr.FanoutLen(netlist.NetID(id))
		}
	}
	buf := make([]point, 0, size)
	jobs := make([]job, 0, live)
	maxPins := 0
	for id := range n.Nets {
		nn := &n.Nets[id]
		if nn.Dead || nn.Const >= 0 {
			continue
		}
		lo := len(buf)
		if nn.Driver != netlist.NoCell && p.Placed(nn.Driver) {
			x, y := p.Pos(nn.Driver)
			buf = append(buf, point{x, y})
		}
		for _, ld := range csr.Fanout(netlist.NetID(id)) {
			if ld.Cell != netlist.NoCell && p.Placed(ld.Cell) {
				x, y := p.Pos(ld.Cell)
				buf = append(buf, point{x, y})
			}
			// Primary ports sit on the core edge nearest the pin bbox;
			// approximated at the left core edge at the driver's y.
			if ld.Cell == netlist.NoCell && len(buf) > lo {
				buf = append(buf, point{0, buf[lo].y})
			}
		}
		if k := len(buf) - lo; k >= 2 {
			jobs = append(jobs, job{id: netlist.NetID(id), lo: int32(lo), hi: int32(len(buf))})
			maxPins = max(maxPins, k)
		} else {
			buf = buf[:lo]
		}
	}
	// Stable counting sort by pin count, descending: slot k holds the nets
	// with maxPins-k pins, each slot in net ID order.
	next := make([]int, maxPins+1)
	for _, jb := range jobs {
		next[maxPins-int(jb.hi-jb.lo)]++
	}
	at := 0
	for k, c := range next {
		next[k] = at
		at += c
	}
	sorted := make([]job, len(jobs))
	for _, jb := range jobs {
		k := maxPins - int(jb.hi-jb.lo)
		sorted[next[k]] = jb
		next[k]++
	}
	jobs = sorted

	// Per-net latency and detour ("rip-up") distributions; with telemetry
	// off the nil histograms also skip the time.Now pair per net.
	hNetNS, hNetOvf := opt.Telemetry.Hist("route.net_ns"), opt.Telemetry.Hist("route.net_overflows")
	pinTotal := 0
	for ji, jb := range jobs {
		if ji&63 == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var t0 time.Time
		ovfBefore := g.overflow
		if hNetNS != nil {
			t0 = time.Now()
		}
		pins := buf[jb.lo:jb.hi:jb.hi]
		length := g.routeNet(pins)
		if hNetNS != nil {
			hNetNS.Observe(int64(time.Since(t0)))
			hNetOvf.Observe(int64(g.overflow - ovfBefore))
		}
		res.NetLen[jb.id] = length
		res.Total += length
		pinTotal += len(pins)
	}
	res.Overflow = g.overflow
	if sp := opt.Telemetry; sp != nil {
		sp.Add("route.nets", int64(len(jobs)))
		sp.Add("route.pins", int64(pinTotal))
		sp.Add("route.overflows", int64(g.overflow))
		sp.Set("route.total_um", res.Total)
	}
	return res, nil
}

// mstPins is the largest net routeNet spans with a minimum spanning
// tree; a larger one is chained in snake order.
const mstPins = 64

// grid tracks per-cell routing usage, and holds the scratch routeNet
// reuses from net to net.
type grid struct {
	nx, ny   int
	use      []float64
	overflow int

	inTree [mstPins]bool
	dist   [mstPins]float64
	from   [mstPins]int
}

func newGrid(p *place.Placement) *grid {
	nx := int(math.Ceil(p.CoreW()/gcellSize)) + 1
	ny := int(math.Ceil(p.CoreH()/gcellSize)) + 1
	return &grid{nx: nx, ny: ny, use: make([]float64, nx*ny)}
}

func (g *grid) cellAt(x, y float64) int {
	i := int(x / gcellSize)
	j := int(y / gcellSize)
	if i < 0 {
		i = 0
	}
	if j < 0 {
		j = 0
	}
	if i >= g.nx {
		i = g.nx - 1
	}
	if j >= g.ny {
		j = g.ny - 1
	}
	return j*g.nx + i
}

// routeNet builds a rectilinear MST over the pins and routes each edge,
// returning the total routed length.
func (g *grid) routeNet(pins []point) float64 {
	if len(pins) > mstPins {
		// Trunk order for huge nets (scan-enable class): chain pins in
		// snake order instead of O(k²) MST. Pins that compare equal are
		// equal, so any sort gives this order.
		slices.SortFunc(pins, func(a, b point) int {
			if c := cmp.Compare(a.y, b.y); c != 0 {
				return c
			}
			return cmp.Compare(a.x, b.x)
		})
		total := 0.0
		for i := 1; i < len(pins); i++ {
			total += g.routeEdge(pins[i-1], pins[i])
		}
		return total
	}
	// Prim MST on Manhattan distance.
	inTree, dist, from := g.inTree[:len(pins)], g.dist[:len(pins)], g.from[:len(pins)]
	clear(inTree)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	inTree[0] = true
	for i := 1; i < len(pins); i++ {
		dist[i] = manhattan(pins[0], pins[i])
		from[i] = 0
	}
	total := 0.0
	for added := 1; added < len(pins); added++ {
		best := -1
		for i := range pins {
			if !inTree[i] && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		total += g.routeEdge(pins[from[best]], pins[best])
		for i := range pins {
			if !inTree[i] {
				if d := manhattan(pins[best], pins[i]); d < dist[i] {
					dist[i] = d
					from[i] = best
				}
			}
		}
	}
	return total
}

func manhattan(a, b point) float64 {
	return math.Abs(a.x-b.x) + math.Abs(a.y-b.y)
}

// routeEdge routes one two-pin connection as an L, picking the less
// congested bend; if both bends are congested it takes a detour (a Z with
// an extra jog), which lengthens the wire — the mechanism that makes
// congested layouts wire-longer, as in the paper's discussion.
func (g *grid) routeEdge(a, b point) float64 {
	base := manhattan(a, b)
	if base == 0 {
		return 0
	}
	bend1 := point{b.x, a.y} // horizontal first
	bend2 := point{a.x, b.y} // vertical first
	c1 := g.pathCost(a, bend1) + g.pathCost(bend1, b)
	c2 := g.pathCost(a, bend2) + g.pathCost(bend2, b)
	detour := 0.0
	var via point
	if c1 <= c2 {
		via = bend1
	} else {
		via = bend2
	}
	if math.Min(c1, c2) > 0 {
		// Congested on both: jog around through the midpoint row.
		g.overflow++
		detour = 2 * gcellSize
	}
	g.commit(a, via)
	g.commit(via, b)
	return base + detour
}

// pathCost counts congested cells along a straight segment.
func (g *grid) pathCost(a, b point) float64 {
	cost := 0.0
	g.walk(a, b, func(cell int, seg float64) {
		if g.use[cell]+seg > capacity {
			cost += seg
		}
	})
	return cost
}

func (g *grid) commit(a, b point) {
	g.walk(a, b, func(cell int, seg float64) {
		g.use[cell] += seg
	})
}

// walk visits the routing cells along the straight segment a→b.
func (g *grid) walk(a, b point, f func(cell int, seg float64)) {
	length := manhattan(a, b)
	if length == 0 {
		return
	}
	steps := int(length/gcellSize) + 1
	for s := 0; s <= steps; s++ {
		t := float64(s) / float64(steps)
		x := a.x + (b.x-a.x)*t
		y := a.y + (b.y-a.y)*t
		f(g.cellAt(x, y), length/float64(steps+1))
	}
}
