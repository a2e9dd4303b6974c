package core

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/dgraph"
	"repro/internal/engine"
)

func TestNetOrderStrategies(t *testing.T) {
	ckt := circuit.SampleSmall()
	dg, err := dgraph.New(ckt)
	if err != nil {
		t.Fatal(err)
	}
	// Slack: nil-safe, returns a permutation when constraints exist.
	order := netOrder(dg, engine.Config{UseConstraints: true})
	if len(order) != len(ckt.Nets) {
		t.Fatalf("slack order has %d entries", len(order))
	}
	// Slack degrades to index order without constraints.
	if order = netOrder(dg, engine.Config{UseConstraints: false}); order != nil {
		t.Fatalf("unconstrained slack order = %v", order)
	}
	// Slack degrades to index order on a circuit without constraints.
	bare := circuit.SampleSmall()
	bare.Cons = nil
	dgBare, err := dgraph.New(bare)
	if err != nil {
		t.Fatal(err)
	}
	if order = netOrder(dgBare, engine.Config{UseConstraints: true}); order != nil {
		t.Fatalf("slack order without constraints = %v", order)
	}
	// Index order overrides the slack default even with constraints.
	if order = netOrder(dg, engine.Config{UseConstraints: true, Order: engine.OrderIndex}); order != nil {
		t.Fatalf("index order = %v", order)
	}
}

func TestOrderStrategyString(t *testing.T) {
	for s, want := range map[engine.OrderStrategy]string{
		engine.OrderSlack: "slack", engine.OrderIndex: "index", 2: "?", 99: "?",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}
