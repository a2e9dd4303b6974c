package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
)

// TestImprovementPhasesHelpOnC1P2 pins the observed benefit of the §3.5
// rip-up phases on the P2 data set (feeds swept aside leave room to
// improve): the full run must beat initial-routing-only on delay estimate
// and never lose on violations.
func TestImprovementPhasesHelpOnC1P2(t *testing.T) {
	p, err := gen.Dataset("C1P2")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := Route(ckt, engine.Config{UseConstraints: true, SkipImprovement: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Delay > initial.Delay+1e-6 {
		t.Errorf("improvement phases worsened delay: %v vs %v", full.Delay, initial.Delay)
	}
	if full.Violations() > initial.Violations() {
		t.Errorf("improvement phases added violations: %d vs %d", full.Violations(), initial.Violations())
	}
	if full.Dens.TotalTracks() > initial.Dens.TotalTracks() {
		t.Errorf("improvement phases grew tracks: %d vs %d",
			full.Dens.TotalTracks(), initial.Dens.TotalTracks())
	}
	// At least one phase accepted a reroute on this data set (regression
	// anchor for the machinery being alive).
	accepted := 0
	for _, ps := range full.Phases {
		accepted += ps.Accepted
	}
	if accepted == 0 {
		t.Error("no reroute accepted on C1P2; improvement machinery inert")
	}
}

// TestZeroConstraintCircuit routes a circuit without constraints in
// constrained mode — the delay machinery must degrade gracefully.
func TestZeroConstraintCircuit(t *testing.T) {
	p, err := gen.Dataset("C1P1")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ckt.Cons = nil
	res, err := Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay != 0 {
		t.Fatalf("delay %v with no constraints", res.Delay)
	}
	if res.Violations() != 0 {
		t.Fatal("violations without constraints")
	}
	for n, g := range res.Graphs {
		if !g.IsTree() {
			t.Fatalf("net %d not a tree", n)
		}
	}
}
