package lowerbound_test

import (
	"testing"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/engine"
	"repro/internal/lowerbound"
)

func TestDelayIsALowerBound(t *testing.T) {
	// The lower bound must not exceed the delay of any actual routing.
	ckt := circuit.SampleSmall()
	_, lb, err := lowerbound.Delay(ckt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := dgraph.New(res.Ckt)
	if err != nil {
		t.Fatal(err)
	}
	tm := dg.NewTiming()
	tm.SetLumped(cr.NetLenUm)
	tm.Analyze()
	for p := range tm.Cons {
		if tm.Cons[p].Worst < lb-1e-9 && p == 0 {
			t.Fatalf("routed delay %v below the lower bound %v", tm.Cons[p].Worst, lb)
		}
	}
	if res.Delay < lb-1e-9 {
		t.Fatalf("estimated delay %v below lower bound %v", res.Delay, lb)
	}
}

// TestHPWLNeverExceedsRoutedLength: property over random samples — the
// per-net HPWL is a lower bound on the router's estimated tree length.
func TestHPWLNeverExceedsRoutedLength(t *testing.T) {
	ckt := circuit.SampleSmall()
	hp := lowerbound.NetHPWL(ckt)
	res, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	// The widened circuit shifts columns, so compare against the widened
	// HPWL (same nets, same indices).
	hpWide := lowerbound.NetHPWL(res.Ckt)
	for n := range res.Ckt.Nets {
		if res.WirelenUm[n] < hpWide[n]-1e-9 {
			t.Errorf("net %s: routed %v below HPWL %v", res.Ckt.Nets[n].Name, res.WirelenUm[n], hpWide[n])
		}
	}
	_ = hp
}
