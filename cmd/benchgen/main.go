// Command benchgen emits the synthetic benchmark circuits in ISCAS-style
// ".bench" form, so they can be inspected or consumed by other tools.
//
// Usage:
//
//	benchgen -circuit p26909c -scale 0.5 > p26909c.bench
package main

import (
	"bufio"
	"flag"
	"log"
	"os"

	"tpilayout"
	"tpilayout/internal/circuitgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgen: ")
	circuit := flag.String("circuit", "s38417c", "circuit profile")
	scale := flag.Float64("scale", 1.0, "circuit size scale factor")
	flag.Parse()
	if *scale <= 0 {
		log.Fatalf("bad -scale %g: must be positive", *scale)
	}

	spec, err := tpilayout.SpecByName(*circuit)
	if err != nil {
		log.Fatal(err)
	}
	if *scale != 1.0 {
		spec = spec.Scale(*scale)
	}
	design, err := tpilayout.Generate(spec, tpilayout.DefaultLibrary())
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	if err := circuitgen.WriteBench(w, design); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}
