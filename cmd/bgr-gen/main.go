// Command bgr-gen synthesizes a bipolar standard-cell test circuit and
// writes it in the circuit text format.
//
// Usage:
//
//	bgr-gen -dataset C1P1 -o c1p1.ckt
//	bgr-gen -cells 400 -rows 8 -cons 10 -seed 7 -style P2 -o custom.ckt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/circuit"
	"repro/internal/gen"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "preset data set (C1P1, C1P2, C2P1, C2P2, C3P1)")
		out     = flag.String("o", "", "output file (default stdout)")
		cells   = flag.Int("cells", 240, "logic cells (custom mode)")
		rows    = flag.Int("rows", 6, "cell rows (custom mode)")
		cons    = flag.Int("cons", 8, "path constraints (custom mode)")
		pairs   = flag.Int("diffpairs", 3, "differential pairs (custom mode)")
		seed    = flag.Int64("seed", 1, "random seed (custom mode)")
		style   = flag.String("style", "P1", "placement style P1 (even feeds) or P2 (feeds aside)")
		limit   = flag.Float64("limit", 1.15, "constraint limit as a multiple of the lower bound")
		dp      = flag.Bool("datapath", false, "bit-sliced datapath synthesis instead of random logic (custom mode)")
	)
	flag.Parse()
	if *style != "P1" && *style != "P2" {
		fatal(fmt.Errorf("-style %q: want P1 or P2", *style))
	}

	var params gen.Params
	var err error
	if *dataset != "" {
		params, err = gen.Dataset(*dataset)
		if err != nil {
			fatal(err)
		}
	} else {
		params = gen.Params{
			Name: "custom", Seed: *seed, Cells: *cells, Rows: *rows,
			Constraints: *cons, DiffPairs: *pairs,
			SeqFrac: 0.18, AvgFanout: 1.6, Locality: 24, FeedFrac: 0.20,
			PIs: 12, POs: 10, WideClock: true, LimitFactor: *limit,
		}
		if *style == "P2" {
			params.Style = gen.P2
		}
		params.Datapath = *dp
	}
	ckt, err := gen.Generate(params)
	if err != nil {
		fatal(err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w = f
	}
	if err := circuit.Format(w, ckt); err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := w.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "bgr-gen: %s: %d cells, %d nets, %d constraints, %d rows x %d cols\n",
		ckt.Name, len(ckt.Cells), len(ckt.Nets), len(ckt.Cons), ckt.Rows, ckt.Cols)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bgr-gen:", err)
	os.Exit(1)
}
