package verify_test

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/verify"
)

// ExampleRouting audits a clean routing and a corrupted one.
func ExampleRouting() {
	res, err := core.Route(circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("clean:", verify.Routing(res).OK())
	res.WirelenUm[0] += 42 // corrupt a reported length
	v := verify.Routing(res)
	fmt.Println("corrupted:", v.OK(), "rule:", v.Problems[0].Rule)
	// Output:
	// clean: true
	// corrupted: false rule: length
}
