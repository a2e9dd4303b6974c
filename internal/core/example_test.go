package core_test

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
)

// ExampleRoute routes the sample circuit under its timing constraint and
// reports the outcome.
func ExampleRoute() {
	ckt := circuit.SampleSmall()
	res, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("nets routed: %d\n", len(res.Graphs))
	fmt.Printf("constraint met: %v\n", res.Margin(0) >= 0)
	fmt.Printf("feed columns inserted: %d\n", res.AddedPitches)
	// Output:
	// nets routed: 7
	// constraint met: true
	// feed columns inserted: 2
}
