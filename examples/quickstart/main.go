// Quickstart: route a small hand-built bipolar circuit end to end and
// print what the router did — the shortest possible tour of the public
// pipeline: circuit -> core.Route -> experiment.Evaluate (channel routing
// and final timing).
package main

import (
	"fmt"
	"log"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/rgraph"
)

func main() {
	// A two-row circuit with a BUF driving gates in both rows, a flip
	// flop, external pins with alternative positions, and one timing
	// constraint (see circuit.SampleSmall for the layout sketch).
	ckt := circuit.SampleSmall()
	if err := ckt.Validate(); err != nil {
		log.Fatal(err)
	}

	// Global routing with the paper's timing-driven heuristics.
	// res.Phases records the Fig. 2 phases.
	res, err := core.Route(ckt, core.Config{UseConstraints: true})
	if err != nil {
		log.Fatal(err)
	}
	for _, ps := range res.Phases {
		fmt.Printf("phase %-18s %3d deletions  %3d reroutes  %3d accepted\n",
			ps.Name, ps.Deletions, ps.Reroutes, ps.Accepted)
	}

	fmt.Printf("\nrouted %d nets; %d feed columns inserted\n", len(res.Graphs), res.AddedPitches)
	for n, g := range res.Graphs {
		tree := g.FinalTree()
		kinds := map[rgraph.EKind]int{}
		for _, e := range tree.Edges {
			kinds[g.Edges[e].Kind]++
		}
		fmt.Printf("  net %-4s  %6.1f µm  (%d trunk, %d feed, %d branch edges)\n",
			res.Ckt.Nets[n].Name, tree.Length, kinds[rgraph.ETrunk], kinds[rgraph.EFeed], kinds[rgraph.EBranch])
	}

	// Channel routing turns the trees into tracks, lengths and area; the
	// final delays come from the channel-routed lengths.
	ev, err := experiment.Evaluate(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal: delay %.1f ps, %d violations, area %.4f mm², wire %.1f µm\n",
		ev.DelayPs, ev.Violations, ev.Channels.AreaMm2, ev.Channels.TotalLenUm)
	for p := range res.Ckt.Cons {
		fmt.Printf("constraint %s: limit %.1f ps, margin %.1f ps\n",
			res.Ckt.Cons[p].Name, res.Ckt.Cons[p].Limit, res.Margin(p))
	}
}
