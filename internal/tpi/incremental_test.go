package tpi

// Differential tests of the incremental insertion loop: after every
// insertion the session must equal a fresh testability.Analyze exactly
// (== on float64, no tolerance), and Insert must pick the very
// points a loop that re-analyses from scratch picks.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
	"tpilayout/internal/testability"
)

// diffCircuits are the three structures the update has to get right: plain
// random logic with hard cones, two clock domains, and carry chains.
var diffCircuits = []struct {
	name  string
	spec  circuitgen.Spec
	scale float64
}{
	{"s38417c", circuitgen.S38417Class(), 0.1},
	{"wctrl1", circuitgen.WirelessCtrlClass(), 0.05},
	{"p26909c", circuitgen.DSPCoreClass(), 0.03},
}

func generate(t testing.TB, spec circuitgen.Spec, scale float64) *netlist.Netlist {
	t.Helper()
	n, err := circuitgen.Generate(spec.Scale(scale), stdcell.Default())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// startInsert does what Insert does before its loop.
func startInsert(t testing.TB, n *netlist.Netlist, opt Options) *inserter {
	t.Helper()
	res := &Result{TE: n.AddPI("tp_te"), TR: n.AddPI("tp_tr")}
	in, err := newInserter(n, opt, res)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// referenceRank is the ranking of the loop this package had before the
// session: every net scored from a fresh analysis, with map probes for the
// taken and excluded nets.
func referenceRank(n *netlist.Netlist, fresh *testability.Session, opt Options, taken map[netlist.NetID]bool, net netlist.NetID) rank {
	an := fresh.Analysis()
	if !insertable(n, fresh, net) || taken[net] || opt.Exclude[net] {
		return rank{score: -1}
	}
	cc := an.CC0[net] + an.CC1[net]
	if cc > testability.Inf {
		cc = testability.Inf
	}
	return rank{
		score: deficitBits(an.Obs[net])*(1+float64(an.FFICone[net])) +
			deficitBits(math.Min(an.P1[net], 1-an.P1[net])),
		cc: cc,
	}
}

// checkExact holds the inserter's session and rank cache against an
// analysis of the netlist made from scratch.
func checkExact(t *testing.T, in *inserter, opt Options, when string) {
	t.Helper()
	n := in.n
	constraints := map[netlist.NetID]int8{in.res.TE: 0, in.res.TR: 1}
	fresh, err := testability.NewSession(n, testability.Options{Constraints: constraints})
	if err != nil {
		t.Fatal(err)
	}
	want, got := fresh.Analysis(), in.sess.Analysis()
	if len(got.CC0) != len(n.Nets) {
		t.Fatalf("%s: session covers %d nets, netlist has %d", when, len(got.CC0), len(n.Nets))
	}
	for _, arr := range []struct {
		name      string
		got, want any
	}{
		{"CC0", got.CC0, want.CC0}, {"CC1", got.CC1, want.CC1}, {"CO", got.CO, want.CO},
		{"P1", got.P1, want.P1}, {"Obs", got.Obs, want.Obs}, {"FFICone", got.FFICone, want.FFICone},
	} {
		if !reflect.DeepEqual(arr.got, arr.want) {
			t.Fatalf("%s: %s differs from a fresh Analyze (first at net %d)",
				when, arr.name, firstDiff(arr.got, arr.want))
		}
	}
	csr := n.CSR()
	taken := map[netlist.NetID]bool{}
	for _, tp := range in.res.Points {
		taken[tp.Target] = true
	}
	for id := range n.Nets {
		net := netlist.NetID(id)
		if g, w := in.sess.Fanout(net), csr.Fanout(net); !(len(g) == 0 && len(w) == 0) && !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: fanout of net %s = %v, CSR rebuild says %v", when, n.Nets[id].Name, g, w)
		}
		if g, w := in.rank[id], referenceRank(n, fresh, opt, taken, net); g != w {
			t.Fatalf("%s: cached rank of net %s = %+v, fresh ranking says %+v", when, n.Nets[id].Name, g, w)
		}
	}
}

func firstDiff(a, b any) int {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.Len() && i < vb.Len(); i++ {
		if va.Index(i).Interface() != vb.Index(i).Interface() {
			return i
		}
	}
	return -1
}

func TestSessionEqualsFreshAnalyzeAfterEveryInsertion(t *testing.T) {
	for _, c := range diffCircuits {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			in := startInsert(t, generate(t, c.spec, c.scale), Options{})
			checkExact(t, in, Options{}, "before any insertion")
			for i := 0; i < 40; i++ {
				net := in.best()
				if net == netlist.NoNet {
					t.Fatalf("no insertable net left after %d points", i)
				}
				if err := in.insertAt(net); err != nil {
					t.Fatal(err)
				}
				checkExact(t, in, Options{}, fmt.Sprintf("after insertion %d", i+1))
			}
			if err := in.n.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSessionEqualsFreshAnalyzeAtArbitraryNets splices TSFFs at random
// insertable nets instead of the best one: shallow nets near the inputs,
// nets deep in a cone, nets next to earlier test points — updates the
// argmax sequence alone would never ask for.
func TestSessionEqualsFreshAnalyzeAtArbitraryNets(t *testing.T) {
	for _, c := range diffCircuits {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(20040216))
			in := startInsert(t, generate(t, c.spec, c.scale), Options{})
			for i := 0; i < 40; i++ {
				var open []netlist.NetID
				for id, r := range in.rank {
					if r.score >= 0 {
						open = append(open, netlist.NetID(id))
					}
				}
				net := open[rng.Intn(len(open))]
				if err := in.insertAt(net); err != nil {
					t.Fatal(err)
				}
				checkExact(t, in, Options{}, fmt.Sprintf("after random insertion %d at %s", i+1, in.n.Nets[net].Name))
			}
		})
	}
}

// referenceInsert is the insertion loop as it was before the session:
// analyse the whole netlist from scratch, scan every net, insert one
// point, repeat.
func referenceInsert(t *testing.T, n *netlist.Netlist, opt Options) *Result {
	t.Helper()
	res := &Result{TE: n.AddPI("tp_te"), TR: n.AddPI("tp_tr")}
	taken := map[netlist.NetID]bool{}
	constraints := map[netlist.NetID]int8{res.TE: 0, res.TR: 1}
	for len(res.Points) < opt.Count {
		fresh, err := testability.NewSession(n, testability.Options{Constraints: constraints})
		if err != nil {
			t.Fatal(err)
		}
		best, top := netlist.NoNet, rank{score: -1}
		for id := range n.Nets {
			r := referenceRank(n, fresh, opt, taken, netlist.NetID(id))
			if r.score < 0 {
				continue
			}
			if best == netlist.NoNet || top.score < r.score || (top.score == r.score && top.cc < r.cc) {
				best, top = netlist.NetID(id), r
			}
		}
		if best == netlist.NoNet {
			t.Fatalf("reference: no insertable net left after %d points", len(res.Points))
		}
		tp, _, err := insertTSFF(n, fresh, best, res.TE, res.TR, len(res.Points))
		if err != nil {
			t.Fatal(err)
		}
		tp.ScoreTC = top.score
		res.Points = append(res.Points, tp)
		taken[best] = true
	}
	return res
}

func sameNetlist(t *testing.T, got, want *netlist.Netlist) {
	t.Helper()
	if !reflect.DeepEqual(got.Cells, want.Cells) || !reflect.DeepEqual(got.Nets, want.Nets) ||
		!reflect.DeepEqual(got.PIs, want.PIs) || !reflect.DeepEqual(got.POs, want.POs) {
		t.Error("netlist differs from the reference loop's")
	}
}

func TestInsertMatchesReferenceLoop(t *testing.T) {
	for _, c := range diffCircuits {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			base := generate(t, c.spec, c.scale)

			// Exclude the nets an unconstrained run picks first, so the
			// excluded run has to rank around them.
			first, err := Insert(base.Clone(), Options{Count: 6})
			if err != nil {
				t.Fatal(err)
			}
			exclude := map[netlist.NetID]bool{}
			for _, tp := range first.Points {
				exclude[tp.Target] = true
			}

			for _, tc := range []struct {
				name string
				opt  Options
			}{
				{"plain", Options{Count: 25}},
				{"exclude", Options{Count: 25, Exclude: exclude}},
			} {
				got, want := base.Clone(), base.Clone()
				res, err := Insert(got, tc.opt)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				ref := referenceInsert(t, want, tc.opt)
				if !reflect.DeepEqual(res, ref) {
					t.Errorf("%s: Insert chose different points than the reference loop", tc.name)
				}
				sameNetlist(t, got, want)
				for _, tp := range res.Points {
					if tc.opt.Exclude[tp.Target] {
						t.Errorf("%s: test point on excluded net %s", tc.name, got.Nets[tp.Target].Name)
					}
				}
			}
		})
	}
}
