package core

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/lowerbound"
)

func TestNetOrderStrategies(t *testing.T) {
	ckt := circuit.SampleSmall()
	// Slack: nil-safe, returns a permutation when constraints exist.
	order, err := netOrder(ckt, Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(ckt.Nets) {
		t.Fatalf("slack order has %d entries", len(order))
	}
	// Slack degrades to index order without constraints.
	order, err = netOrder(ckt, Config{UseConstraints: false})
	if err != nil || order != nil {
		t.Fatalf("unconstrained slack order = %v, %v", order, err)
	}
	// HPWL: descending half-perimeter.
	order, err = netOrder(ckt, Config{Order: OrderHPWL})
	if err != nil {
		t.Fatal(err)
	}
	hp := lowerbound.NetHPWL(ckt)
	for i := 1; i < len(order); i++ {
		if hp[order[i-1]] < hp[order[i]] {
			t.Fatalf("HPWL order not descending at %d", i)
		}
	}
	// Fanout: descending sink count.
	order, err = netOrder(ckt, Config{Order: OrderFanout})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if len(ckt.Fanouts(order[i-1])) < len(ckt.Fanouts(order[i])) {
			t.Fatalf("fanout order not descending at %d", i)
		}
	}
	// Index order overrides the slack default even with constraints.
	order, err = netOrder(ckt, Config{UseConstraints: true, Order: OrderIndex})
	if err != nil || order != nil {
		t.Fatalf("index order = %v, %v", order, err)
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
