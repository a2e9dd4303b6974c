// Multi-pitch clock routing and feed-cell insertion (§4.2-4.3): a 2-pitch
// clock net needs two adjacent feedthrough slots in every row it crosses.
// When the free slots run out, the router widens the chip with flagged
// feed-cell groups and re-assigns — guaranteed complete. This example
// generates a small circuit with a wide clock, routes it, and shows the
// insertion and the clock's pitch-weighted density footprint.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/report"
	"repro/internal/rgraph"
)

func main() {
	params := gen.Params{
		Name: "clockdemo", Seed: 11, Cells: 80, Rows: 4,
		SeqFrac: 0.35, AvgFanout: 1.5, Locality: 16,
		PIs: 6, POs: 6, FeedFrac: 0.10, // deliberately scarce feeds
		WideClock: true, Constraints: 4, LimitFactor: 1.2,
	}
	ckt, err := gen.Generate(params)
	if err != nil {
		log.Fatal(err)
	}
	clk := -1
	for n := range ckt.Nets {
		if ckt.Nets[n].Pitch > 1 {
			clk = n
		}
	}
	fmt.Printf("clock net %q: pitch %d, %d terminals\n",
		ckt.Nets[clk].Name, ckt.Nets[clk].Pitch, len(ckt.Terminals(clk)))

	res, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chip widened by %d columns (%d -> %d) to complete the assignment\n",
		res.AddedPitches, ckt.Cols, res.Ckt.Cols)

	// The clock's feedthroughs occupy two adjacent columns per row.
	fmt.Println("clock feedthroughs (leftmost of each 2-wide group):")
	for _, f := range res.Feeds[clk] {
		fmt.Printf("  row %d, columns %d-%d\n", f.Row, f.Col, f.Col+ckt.Nets[clk].Pitch-1)
	}

	// Density: the clock's trunks weigh 2 in the profiles.
	g := res.Graphs[clk]
	trunks := 0
	for _, e := range g.AliveEdges() {
		if g.Edges[e].Kind == rgraph.ETrunk {
			trunks++
		}
	}
	fmt.Printf("clock tree: %.0f µm over %d trunk edges (each weighs %d tracks)\n",
		res.WirelenUm[clk], trunks, g.Pitch)

	// Skew (§4.2's motivation): the wide wire halves the resistance, so
	// the Elmore skew across the DFF clock pins shrinks versus a 1-pitch
	// wire of the same topology.
	const rPerUm = 0.0005 // kΩ/µm for a 1-pitch wire
	tree := g.FinalTree()
	wideSkew := g.SkewPs(tree, res.Ckt, rPerUm/float64(g.Pitch))
	thinSkew := g.SkewPs(tree, res.Ckt, rPerUm)
	fmt.Printf("clock skew (Elmore): %.2f ps at pitch %d vs %.2f ps at pitch 1 (same tree)\n",
		wideSkew, g.Pitch, thinSkew)

	ch, _ := res.Dens.MaxCM()
	fmt.Println()
	fmt.Print(report.Fig4DensityChart(res.Dens, ch))
}
