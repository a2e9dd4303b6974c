package core

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/dgraph"
	"repro/internal/lowerbound"
)

func TestNetOrderStrategies(t *testing.T) {
	ckt := circuit.SampleSmall()
	dg, err := dgraph.New(ckt)
	if err != nil {
		t.Fatal(err)
	}
	// Slack: nil-safe, returns a permutation when constraints exist.
	order := netOrder(dg, Config{UseConstraints: true})
	if len(order) != len(ckt.Nets) {
		t.Fatalf("slack order has %d entries", len(order))
	}
	// Slack degrades to index order without constraints.
	if order = netOrder(dg, Config{UseConstraints: false}); order != nil {
		t.Fatalf("unconstrained slack order = %v", order)
	}
	// HPWL: descending half-perimeter.
	order = netOrder(dg, Config{Order: OrderHPWL})
	hp := lowerbound.NetHPWL(ckt)
	for i := 1; i < len(order); i++ {
		if hp[order[i-1]] < hp[order[i]] {
			t.Fatalf("HPWL order not descending at %d", i)
		}
	}
	// Fanout: descending sink count.
	order = netOrder(dg, Config{Order: OrderFanout})
	for i := 1; i < len(order); i++ {
		if len(ckt.Fanouts(order[i-1])) < len(ckt.Fanouts(order[i])) {
			t.Fatalf("fanout order not descending at %d", i)
		}
	}
	// Index order overrides the slack default even with constraints.
	if order = netOrder(dg, Config{UseConstraints: true, Order: OrderIndex}); order != nil {
		t.Fatalf("index order = %v", order)
	}
}

func TestOrderStrategyString(t *testing.T) {
	for s, want := range map[OrderStrategy]string{
		OrderSlack: "slack", OrderIndex: "index", OrderHPWL: "hpwl", OrderFanout: "fanout", 99: "?",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}
