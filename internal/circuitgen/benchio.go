package circuitgen

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"tpilayout/internal/netlist"
	"tpilayout/internal/stdcell"
)

// WriteBench writes the netlist in ISCAS'89 ".bench" style:
//
//	INPUT(a)
//	OUTPUT(y)
//	n1 = NAND(a, b)
//	q  = DFF(n1)        # domain=clk
//
// Clock pins are implicit, as in the original format; the clock domain of
// each flip-flop is recorded in a trailing comment so a round-trip through
// ReadBench preserves domains.
func WriteBench(w io.Writer, n *netlist.Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %d cells, %d FFs, %d nets\n",
		n.Name, n.NumLiveCells(), n.NumFlipFlops(), len(n.Nets))
	for _, d := range n.Domains {
		fmt.Fprintf(bw, "# CLOCK %s %g\n", d.Name, d.PeriodPS)
	}
	for _, p := range n.PIs {
		if !p.Clock {
			fmt.Fprintf(bw, "INPUT(%s)\n", p.Name)
		}
	}
	for _, p := range n.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", netName(n, p.Net))
	}
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Dead || c.Cell.Kind.IsPhysicalOnly() {
			continue
		}
		var args []string
		for pin, in := range c.Ins {
			if c.Cell.Inputs[pin].Clock {
				continue
			}
			args = append(args, netName(n, in))
		}
		op := strings.ToUpper(c.Cell.Kind.String())
		if c.Cell.Kind == stdcell.KindBuf {
			op = "BUFF" // ISCAS spelling
		}
		line := fmt.Sprintf("%s = %s(%s)", netName(n, c.Out), op, strings.Join(args, ", "))
		if c.Cell.Kind.IsSequential() {
			line += fmt.Sprintf(" # domain=%s", n.Domains[c.Domain].Name)
		}
		fmt.Fprintln(bw, line)
	}
	return bw.Flush()
}

func netName(n *netlist.Netlist, id netlist.NetID) string {
	if id == netlist.NoNet {
		return "-"
	}
	return n.Nets[id].Name
}

// validName reports whether s can serve as a net or domain name in a
// .bench file. Whitespace is rejected because WriteBench could not emit
// such a name unambiguously (names are outer-trimmed on parse, and domain
// names are space-separated in the # CLOCK header).
func validName(s string) bool {
	return s != "" && !strings.ContainsAny(s, " \t")
}

// ReadBench parses a ".bench" netlist written by WriteBench (or a plain
// ISCAS'89 file) and maps every operator to the weakest library cell of
// the matching kind. Plain ISCAS files have no clock information; a single
// domain "clk" with the given default period is created on demand.
//
// ReadBench never panics on malformed input: structural problems
// (duplicate or missing definitions, multiply-driven nets, combinational
// cycles, unknown operators) are reported as errors. A parsed netlist is
// validated and returned packed (see netlist.Clone).
func ReadBench(r io.Reader, name string, lib *stdcell.Library, defaultPeriodPS float64) (*netlist.Netlist, error) {
	n := netlist.New(name, lib)
	nets := make(map[string]netlist.NetID)
	domains := make(map[string]int)
	clkNets := make(map[string]netlist.NetID)

	getNet := func(s string) netlist.NetID {
		if id, ok := nets[s]; ok {
			return id
		}
		id := n.AddNet(s)
		nets[s] = id
		return id
	}
	getDomain := func(dname string, period float64) int {
		if d, ok := domains[dname]; ok {
			return d
		}
		clk, dom := n.AddClockPI(dname, period)
		domains[dname] = dom
		clkNets[dname] = clk
		return dom
	}

	type ffLine struct {
		out, in string
		domain  string
	}
	type gateLine struct {
		out, op string
		ins     []string
	}
	var ffs []ffLine
	var gates []gateLine
	var outputs []string

	sc := bufio.NewScanner(r)
	// The buffer grows with the longest line, up to a 1 MiB cap: a small
	// circuit does not pay for a megabyte per parse.
	sc.Buffer(nil, 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		comment := ""
		if i := strings.Index(line, "#"); i >= 0 {
			comment = strings.TrimSpace(line[i+1:])
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			if strings.HasPrefix(comment, "CLOCK ") {
				fields := strings.Fields(comment)
				if len(fields) == 3 {
					var period float64
					fmt.Sscanf(fields[2], "%g", &period)
					getDomain(fields[1], period)
				}
			}
			continue
		}
		switch {
		case strings.HasPrefix(line, "INPUT(") && strings.HasSuffix(line, ")"):
			pin := strings.TrimSpace(line[len("INPUT(") : len(line)-1])
			if !validName(pin) {
				return nil, fmt.Errorf("bench line %d: bad input name %q", lineNo, pin)
			}
			if _, dup := nets[pin]; dup {
				return nil, fmt.Errorf("bench line %d: INPUT(%s) already defined", lineNo, pin)
			}
			nets[pin] = n.AddPI(pin)
		case strings.HasPrefix(line, "OUTPUT(") && strings.HasSuffix(line, ")"):
			o := strings.TrimSpace(line[len("OUTPUT(") : len(line)-1])
			if !validName(o) {
				return nil, fmt.Errorf("bench line %d: bad output name %q", lineNo, o)
			}
			outputs = append(outputs, o)
		default:
			eq := strings.Index(line, "=")
			lp := strings.Index(line, "(")
			rp := strings.LastIndex(line, ")")
			if eq < 0 || lp < eq || rp < lp {
				return nil, fmt.Errorf("bench line %d: cannot parse %q", lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			if !validName(out) {
				return nil, fmt.Errorf("bench line %d: bad net name %q", lineNo, out)
			}
			op := strings.ToUpper(strings.TrimSpace(line[eq+1 : lp]))
			var ins []string
			for _, a := range strings.Split(line[lp+1:rp], ",") {
				if a = strings.TrimSpace(a); a != "" {
					if !validName(a) {
						return nil, fmt.Errorf("bench line %d: bad net name %q", lineNo, a)
					}
					ins = append(ins, a)
				}
			}
			if op == "DFF" || op == "SDFF" {
				if len(ins) == 0 {
					return nil, fmt.Errorf("bench line %d: %s with no data input", lineNo, op)
				}
				dom := "clk"
				if strings.HasPrefix(comment, "domain=") {
					dom = comment[len("domain="):]
				}
				if !validName(dom) {
					return nil, fmt.Errorf("bench line %d: bad domain name %q", lineNo, dom)
				}
				ffs = append(ffs, ffLine{out: out, in: ins[0], domain: dom})
			} else {
				gates = append(gates, gateLine{out: out, op: op, ins: ins})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	opKind := map[string]stdcell.Kind{
		"INV": stdcell.KindInv, "NOT": stdcell.KindInv,
		"BUF": stdcell.KindBuf, "BUFF": stdcell.KindBuf,
		"NAND": stdcell.KindNand, "NOR": stdcell.KindNor,
		"AND": stdcell.KindAnd, "OR": stdcell.KindOr,
		"XOR": stdcell.KindXor, "XNOR": stdcell.KindXnor,
		"AOI21": stdcell.KindAoi21, "OAI21": stdcell.KindOai21,
		"MUX": stdcell.KindMux2, "MUX2": stdcell.KindMux2,
	}

	// driveable returns the net for an output name, erroring (instead of
	// letting AddCell panic) when the net already has a source: a second
	// assignment to the same name, or an assignment to an INPUT.
	driveable := func(s string) (netlist.NetID, error) {
		id := getNet(s)
		if nn := n.Net(id); nn.Driver != netlist.NoCell || nn.PI >= 0 {
			return netlist.NoNet, fmt.Errorf("bench: net %q driven more than once", s)
		}
		return id, nil
	}
	for i, f := range ffs {
		dom := getDomain(f.domain, defaultPeriodPS)
		q, err := driveable(f.out)
		if err != nil {
			return nil, err
		}
		d := getNet(f.in)
		ff := n.AddCell(fmt.Sprintf("ff%d", i), lib.MustCell("DFFX1"),
			[]netlist.NetID{d, clkNets[f.domain]}, q)
		n.Cells[ff].Domain = dom
	}
	for i, gl := range gates {
		kind, ok := opKind[gl.op]
		if !ok {
			return nil, fmt.Errorf("bench: unknown op %q", gl.op)
		}
		cell := lib.Weakest(kind, len(gl.ins))
		if cell == nil {
			return nil, fmt.Errorf("bench: no %s cell with %d inputs", kind, len(gl.ins))
		}
		ins := make([]netlist.NetID, len(gl.ins))
		for j, a := range gl.ins {
			ins[j] = getNet(a)
		}
		out, err := driveable(gl.out)
		if err != nil {
			return nil, err
		}
		n.AddCell(fmt.Sprintf("g%d", i), cell, ins, out)
	}
	for _, o := range outputs {
		id, ok := nets[o]
		if !ok {
			return nil, fmt.Errorf("bench: OUTPUT(%s) never defined", o)
		}
		n.AddPO(o, id)
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return n.Clone(), nil
}

// Stats summarizes a generated circuit for reports and tests.
type Stats struct {
	Cells, FFs, Gates, PIs, POs, Nets int
	Domains                           []string
	MaxDepth                          int
}

// Summarize computes Stats for a netlist.
func Summarize(n *netlist.Netlist) Stats {
	s := Stats{
		Cells: n.NumLiveCells(),
		FFs:   n.NumFlipFlops(),
		PIs:   len(n.PIs),
		POs:   len(n.POs),
		Nets:  len(n.Nets),
	}
	s.Gates = s.Cells - s.FFs
	for _, d := range n.Domains {
		s.Domains = append(s.Domains, d.Name)
	}
	sort.Strings(s.Domains)
	if lv, err := n.Levelize(); err == nil {
		s.MaxDepth = lv.MaxLevel
	}
	return s
}
