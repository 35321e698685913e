package layoutviz

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"tpilayout/internal/circuitgen"
	"tpilayout/internal/place"
	"tpilayout/internal/route"
	"tpilayout/internal/stdcell"
)

func layout(t testing.TB) (*place.Placement, *route.Result) {
	t.Helper()
	lib := stdcell.Default()
	n, err := circuitgen.Generate(circuitgen.S38417Class().Scale(0.02), lib)
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.PlaceContext(context.Background(), n, place.Options{TargetUtilization: 0.90})
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.RouteContext(context.Background(), p, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

// TestRenderStages reproduces Figure 3: three views with strictly
// increasing content.
func TestRenderStages(t *testing.T) {
	p, r := layout(t)
	fp := SVG(p, nil, StageFloorplan)
	pl := SVG(p, nil, StagePlacement)
	rt := SVG(p, r, StageRouted)
	for name, doc := range map[string][]byte{"floorplan": fp, "placement": pl, "routed": rt} {
		if !bytes.HasPrefix(doc, []byte("<svg")) || !bytes.Contains(doc, []byte("</svg>")) {
			t.Errorf("%s: not a complete SVG document", name)
		}
	}
	if len(pl) <= len(fp) {
		t.Error("placement view not larger than floorplan view")
	}
	if len(rt) <= len(pl) {
		t.Error("routed view not larger than placement view")
	}
	// The floorplan must show the rows and the three rings.
	if got := strings.Count(string(fp), "<rect"); got < p.NumRows+3 {
		t.Errorf("floorplan has %d rects, want at least rows+rings = %d", got, p.NumRows+3)
	}
	if !strings.Contains(string(rt), "<path") {
		t.Error("routed view has no wires")
	}
}

func TestMaxNetsCap(t *testing.T) {
	p, r := layout(t)
	var small, big bytes.Buffer
	drawWires(&small, p, r, 0, 0, 10)
	drawWires(&big, p, r, 0, 0, 100000)
	if small.Len() >= big.Len() {
		t.Error("net cap had no effect")
	}
}
