package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/verify"
)

// TestAllOrdersRouteCleanly runs both ordering strategies through the full
// pipeline on C1P1 and audits each result.
func TestAllOrdersRouteCleanly(t *testing.T) {
	p, err := gen.Dataset("C1P1")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	delays := map[engine.OrderStrategy]float64{}
	for _, s := range []engine.OrderStrategy{engine.OrderSlack, engine.OrderIndex} {
		res, err := core.Route(ckt, engine.Config{UseConstraints: true, Order: s})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if v := verify.Routing(res); !v.OK() {
			t.Fatalf("%v: %v", s, v.Problems[0])
		}
		delays[s] = res.Delay
	}
	// The paper's slack order must be the best (or tied best) for delay
	// on the reference data set.
	for s, d := range delays {
		if delays[engine.OrderSlack] > d+1e-6 {
			t.Errorf("slack order (%.1f ps) beaten by %v (%.1f ps)", delays[engine.OrderSlack], s, d)
		}
	}
}
