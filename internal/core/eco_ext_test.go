package core_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/verify"
)

func routeDataset(t *testing.T, name string, cfg engine.Config) *engine.Result {
	t.Helper()
	p, err := gen.Dataset(name)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Route(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func snapshotAlive(res *engine.Result) [][]bool {
	out := make([][]bool, len(res.Graphs))
	for n, g := range res.Graphs {
		out[n] = make([]bool, len(g.Edges))
		for e := range g.Edges {
			out[n][e] = g.Edges[e].Alive
		}
	}
	return out
}

// TestReOptimizePhaseError: an error raised at an ECO phase boundary must
// come back from ReOptimize, not be swallowed into a partial result.
func TestReOptimizePhaseError(t *testing.T) {
	prev, err := core.Route(circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected eco fault")
	faultinject.Set(func(point, detail string) error {
		if point == faultinject.CorePhase && detail == "eco-recover" {
			return injected
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)
	res, err := core.ReOptimize(prev, engine.Config{UseConstraints: true})
	if !errors.Is(err, injected) {
		t.Fatalf("ReOptimize error = %v, want the injected fault", err)
	}
	if res != nil {
		t.Fatal("ReOptimize returned a result alongside the error")
	}
}

func TestReOptimizeLeavesPrevUntouched(t *testing.T) {
	prev := routeDataset(t, "C1P1", engine.Config{UseConstraints: true})
	before := snapshotAlive(prev)
	prevDelay := prev.Delay
	next, err := core.ReOptimize(prev, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	after := snapshotAlive(prev)
	for n := range before {
		for e := range before[n] {
			if before[n][e] != after[n][e] {
				t.Fatalf("ReOptimize mutated prev (net %d edge %d)", n, e)
			}
		}
	}
	if prev.Delay != prevDelay {
		t.Fatal("prev delay changed")
	}
	if v := verify.Routing(next); !v.OK() {
		t.Fatalf("re-optimized routing invalid: %v", v.Problems[0])
	}
	// Starting from an already-optimized routing, re-optimization must
	// not make things worse.
	if next.Delay > prev.Delay+1e-6 {
		t.Fatalf("re-optimization worsened delay: %v -> %v", prev.Delay, next.Delay)
	}
}

// TestReOptimizeRecoversBadOrder routes with a deliberately bad net
// ordering, then re-optimizes: the ECO pass (rip-up with feed
// re-assignment) must claw back a good share of the lost delay.
func TestReOptimizeRecoversBadOrder(t *testing.T) {
	bad := routeDataset(t, "C1P2", engine.Config{UseConstraints: true, Order: engine.OrderIndex})
	good := routeDataset(t, "C1P2", engine.Config{UseConstraints: true})
	eco, err := core.ReOptimize(bad, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.Routing(eco); !v.OK() {
		t.Fatalf("%v", v.Problems[0])
	}
	if eco.Delay > bad.Delay+1e-6 {
		t.Fatalf("ECO worsened delay: %v -> %v", bad.Delay, eco.Delay)
	}
	t.Logf("delays: bad order %.1f, after ECO %.1f, slack-ordered %.1f ps",
		bad.Delay, eco.Delay, good.Delay)
	// The ECO pass must actually do something on this fixture.
	if eco.Delay >= bad.Delay-1e-6 {
		t.Error("ECO pass recovered nothing on the bad-order routing")
	}
	accepted := 0
	for _, ps := range eco.Phases {
		accepted += ps.Accepted
	}
	if accepted == 0 {
		t.Error("no accepted reroutes recorded")
	}
}

// TestReOptimizeAfterTightening edits a constraint limit and re-optimizes:
// the ECO phases see the new limit.
func TestReOptimizeAfterTightening(t *testing.T) {
	prev := routeDataset(t, "C1P1", engine.Config{UseConstraints: true})
	// Tighten every met constraint to sit just above its current delay:
	// margins shrink but stay non-negative; the ECO run must not create
	// violations.
	for p := range prev.Ckt.Cons {
		worst := prev.Timing.Cons[p].Worst
		if prev.Timing.Cons[p].Margin > 0 {
			prev.Ckt.Cons[p].Limit = worst * 1.01
		}
	}
	eco, err := core.ReOptimize(prev, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.Routing(eco); !v.OK() {
		t.Fatalf("%v", v.Problems[0])
	}
	// Violations under the *new* limits must not exceed the count the old
	// routing would have under those same limits.
	oldViol := 0
	for p := range eco.Timing.Cons {
		if prev.Timing.Cons[p].Worst > prev.Ckt.Cons[p].Limit {
			oldViol++
		}
	}
	if eco.Violations() > oldViol {
		t.Fatalf("ECO added violations: %d vs %d", eco.Violations(), oldViol)
	}
}

// TestReOptimizeAfterUnconstrainedRoute pins the ECO role of the delay
// phases' plain reroute: on an unconstrained route of C2P1 the constraints
// were never steered for, so re-routing critical nets on their existing
// feedthroughs recovers a violation on its own. Every accepted move here
// keeps the feedthroughs; a change that skips the plain reroute in
// eco-recover and eco-delay accepts nothing and leaves all 7 violations.
func TestReOptimizeAfterUnconstrainedRoute(t *testing.T) {
	prev := routeDataset(t, "C2P1", engine.Config{})
	eco, err := core.ReOptimize(prev, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.Routing(eco); !v.OK() {
		t.Fatalf("%v", v.Problems[0])
	}
	if eco.Violations() >= prev.Violations() {
		t.Errorf("violations %d -> %d, want fewer", prev.Violations(), eco.Violations())
	}
	delayAccepted := 0
	for _, ps := range eco.Phases {
		if ps.Name == "eco-recover" || ps.Name == "eco-delay" {
			delayAccepted += ps.Accepted
		}
	}
	if delayAccepted == 0 {
		t.Error("eco-recover and eco-delay accepted no move")
	}
	for n := range prev.Feeds {
		if !slices.Equal(eco.Feeds[n], prev.Feeds[n]) {
			t.Errorf("net %s: feedthroughs moved %v -> %v", prev.Ckt.Nets[n].Name, prev.Feeds[n], eco.Feeds[n])
		}
	}
	t.Logf("violations %d -> %d, delay-phase accepts %d", prev.Violations(), eco.Violations(), delayAccepted)
}

func TestCloneGraphIndependence(t *testing.T) {
	prev := routeDataset(t, "C1P1", engine.Config{UseConstraints: true})
	g := prev.Graphs[0]
	c := g.Clone()
	// Mutating the clone must not touch the original.
	for e := range c.Edges {
		if c.Edges[e].Alive {
			c.Edges[e].Alive = false
			if !g.Edges[e].Alive {
				t.Fatal("clone shares edge storage")
			}
			break
		}
	}
}
