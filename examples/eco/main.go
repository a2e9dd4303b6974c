// ECO: the engineering-change flow. Route once, tighten the constraint
// limits (as a designer would after seeing silicon headroom), and
// re-optimize the existing routing with core.ReOptimize — no re-assignment,
// no initial routing, just the §3.5 rip-up phases against the new limits.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
)

func main() {
	p, err := gen.Dataset("C1P2")
	if err != nil {
		log.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		log.Fatal(err)
	}

	// First tape-out: routed with a deliberately poor net ordering, as if
	// timing had not been a concern.
	first, err := core.Route(ckt, engine.Config{UseConstraints: true, Order: engine.OrderIndex})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first routing:   worst delay %.1f ps, %d violations, %d tracks\n",
		first.Delay, first.Violations(), first.Dens.TotalTracks())

	// The ECO: timing must improve; re-optimize in place.
	eco, err := core.ReOptimize(first, engine.Config{UseConstraints: true})
	if err != nil {
		log.Fatal(err)
	}
	accepted := 0
	for _, ps := range eco.Phases {
		accepted += ps.Accepted
		fmt.Printf("  %-12s reroutes=%-3d accepted=%d\n", ps.Name, ps.Reroutes, ps.Accepted)
	}
	fmt.Printf("after ECO:       worst delay %.1f ps, %d violations, %d tracks (%d reroutes kept)\n",
		eco.Delay, eco.Violations(), eco.Dens.TotalTracks(), accepted)

	// For reference: what a from-scratch timing-driven route achieves.
	scratch, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("from scratch:    worst delay %.1f ps, %d violations, %d tracks\n",
		scratch.Delay, scratch.Violations(), scratch.Dens.TotalTracks())
	fmt.Println("\nECO recovers what rip-up can reach; the full reroute also re-orders")
	fmt.Println("the feedthrough assignment, which is where most of the delay lives.")
}
