// Handoff: produce the routing database a detailed router would consume
// (JSON via internal/routedb), then read it back and summarize it — the
// consumer side of the flow. Demonstrates that the handoff is
// self-contained: everything below works from the JSON alone.
package main

import (
	"bytes"
	"fmt"
	"log"
	"sort"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/routedb"
)

func main() {
	// Producer side: route and export.
	res, err := core.Route(circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		log.Fatal(err)
	}
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		log.Fatal(err)
	}
	db, err := routedb.Build(res, cr)
	if err != nil {
		log.Fatal(err)
	}
	var wire bytes.Buffer
	if err := routedb.Write(&wire, db); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %d bytes of routing database\n\n", wire.Len())

	// Consumer side: parse, validate, summarize.
	got, err := routedb.Read(&wire)
	if err != nil {
		log.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chip %s: %.0f µm x %.0f µm (%.4f mm²), %d channels\n",
		got.Circuit, got.WidthUm, got.HeightUm, got.AreaMm2, len(got.Channels))
	for _, ch := range got.Channels {
		fmt.Printf("  channel %d: %d tracks\n", ch.Index, ch.Tracks)
	}

	// Longest nets first — what a detailed router would budget for.
	nets := append([]routedb.Net(nil), got.Nets...)
	sort.Slice(nets, func(i, j int) bool { return nets[i].LengthUm > nets[j].LengthUm })
	fmt.Println("\nnets by routed length:")
	for _, n := range nets {
		fmt.Printf("  %-5s %7.1f µm  %d wires, %d pins, %d feedthroughs\n",
			n.Name, n.LengthUm, len(n.Wires), len(n.Pins), len(n.Feeds))
	}
}
