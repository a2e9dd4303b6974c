// Timing sweep: how the delay/area trade moves as the constraint limits
// tighten. Each run regenerates the C1 netlist with a different
// LimitFactor (the constraints' distance above the lower bound) and routes
// it with and without constraints — the gap between the two curves is the
// value of timing-driven routing.
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/gen"
)

func main() {
	fmt.Printf("%-8s %12s %12s %12s %12s %10s\n",
		"limit", "lower(ps)", "con(ps)", "unc(ps)", "reduction%", "conArea")
	for _, factor := range []float64{1.05, 1.10, 1.20, 1.35, 1.60} {
		p, err := gen.Dataset("C1P1")
		if err != nil {
			log.Fatal(err)
		}
		p.LimitFactor = factor
		ckt, err := gen.Generate(p)
		if err != nil {
			log.Fatal(err)
		}
		row, err := experiment.RunGenerated(fmt.Sprintf("x%.2f", factor), ckt, engine.Config{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8.2f %12.1f %12.1f %12.1f %12.1f %10.3f\n",
			factor, row.LowerBoundPs, row.Con.DelayPs, row.Unc.DelayPs,
			row.ImprovementPct(), row.Con.AreaMm2)
	}
	fmt.Println("\nreduction% = (unconstrained - constrained) / lower bound, the paper's headline metric")
}
