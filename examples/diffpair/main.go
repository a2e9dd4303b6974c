// Differential-drive routing (§4.1): an ECL driver's complementary
// outputs Q/QB must reach the receiver's IN/INB over physically parallel
// wires. The router keeps the two routing graphs isomorphic and deletes
// edges in lock-step; this example prints the resulting mirrored trees.
package main

import (
	"fmt"
	"log"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
)

func main() {
	ckt := circuit.SampleDiff()
	res, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		log.Fatal(err)
	}

	q, qb := 0, 1 // nets "q" and "qb" form the pair in SampleDiff
	fmt.Printf("differential pair %s / %s\n", res.Ckt.Nets[q].Name, res.Ckt.Nets[qb].Name)
	ga, gb := res.Graphs[q], res.Graphs[qb]
	fmt.Printf("%-4s %-7s %-22s %-22s\n", "edge", "kind", res.Ckt.Nets[q].Name, res.Ckt.Nets[qb].Name)
	for e := range ga.Edges {
		if !ga.Edges[e].Alive && !gb.Edges[e].Alive {
			continue
		}
		fmt.Printf("e%-3d %-7s ch=%d x=[%2d,%2d] alive=%-5v ch=%d x=[%2d,%2d] alive=%-5v\n",
			e, ga.Edges[e].Kind,
			ga.Edges[e].Ch, ga.Edges[e].X1, ga.Edges[e].X2, ga.Edges[e].Alive,
			gb.Edges[e].Ch, gb.Edges[e].X1, gb.Edges[e].X2, gb.Edges[e].Alive)
	}
	fmt.Printf("\nlengths: %s %.1f µm, %s %.1f µm (parallel: identical)\n",
		res.Ckt.Nets[q].Name, res.WirelenUm[q], res.Ckt.Nets[qb].Name, res.WirelenUm[qb])

	// The pair's wires run one column apart in the same channel.
	for e := range ga.Edges {
		if ga.Edges[e].Alive && ga.Edges[e].Kind.String() == "trunk" {
			fmt.Printf("trunk e%d: %s spans [%d,%d], %s spans [%d,%d] — constant shift %d\n",
				e, res.Ckt.Nets[q].Name, ga.Edges[e].X1, ga.Edges[e].X2,
				res.Ckt.Nets[qb].Name, gb.Edges[e].X1, gb.Edges[e].X2,
				gb.Edges[e].X1-ga.Edges[e].X1)
		}
	}
}
