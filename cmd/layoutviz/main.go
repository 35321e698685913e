// Command layoutviz reproduces Figure 3 of the paper: it runs the
// physical flow for one circuit and writes three SVG views of the layout
// — after floorplanning, after placement, and after routing.
//
// Usage:
//
//	layoutviz -circuit s38417c -scale 0.1 -tp 2 -out ./fig3
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"tpilayout"
	"tpilayout/internal/layoutviz"
)

func main() {
	circuit := flag.String("circuit", "s38417c", "circuit profile")
	scale := flag.Float64("scale", 0.1, "circuit size scale factor")
	tp := flag.Float64("tp", 1.0, "test-point percentage")
	out := flag.String("out", ".", "output directory")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("layoutviz: ")
	fatal := func(msg string, err error) { log.Fatalf("%s: %v", msg, err) }
	if *scale <= 0 {
		log.Fatalf("bad -scale %g: must be positive", *scale)
	}

	spec, err := tpilayout.SpecByName(*circuit)
	if err != nil {
		fatal("resolving circuit", err)
	}
	if *scale != 1.0 {
		spec = spec.Scale(*scale)
	}
	design, err := tpilayout.Generate(spec, tpilayout.DefaultLibrary())
	if err != nil {
		fatal("generating netlist", err)
	}
	cfg := tpilayout.ExperimentConfig(spec.Name)
	cfg.TPPercent = *tp
	cfg.SkipATPG = true
	res, err := tpilayout.Run(design, cfg)
	if err != nil {
		fatal("running flow", err)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal("creating output directory", err)
	}
	views := []struct {
		stage layoutviz.Stage
		name  string
	}{
		{layoutviz.StageFloorplan, "fig3a_floorplan.svg"},
		{layoutviz.StagePlacement, "fig3b_placement.svg"},
		{layoutviz.StageRouted, "fig3c_routed.svg"},
	}
	for _, v := range views {
		doc := layoutviz.SVG(res.Place, res.Route, v.stage)
		path := filepath.Join(*out, v.name)
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			fatal("writing view", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", path, len(doc))
	}
}
