package core

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/engine"
	"repro/internal/rgraph"
)

func route(t *testing.T, ckt *circuit.Circuit, cfg engine.Config) *engine.Result {
	t.Helper()
	res, err := Route(ckt, cfg)
	if err != nil {
		t.Fatalf("Route(%s): %v", ckt.Name, err)
	}
	return res
}

func TestRouteSampleSmallConstrained(t *testing.T) {
	res := route(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	for n, g := range res.Graphs {
		if !g.IsTree() {
			t.Errorf("net %s not a tree", res.Ckt.Nets[n].Name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("net %s: %v", res.Ckt.Nets[n].Name, err)
		}
		if res.WirelenUm[n] <= 0 {
			t.Errorf("net %s: wirelength %v", res.Ckt.Nets[n].Name, res.WirelenUm[n])
		}
	}
	if res.Delay <= 0 {
		t.Error("no constrained-path delay reported")
	}
	if res.Violations() != 0 {
		t.Errorf("sample circuit should meet its constraint, margin %v", res.Margin(0))
	}
	if res.AddedPitches < 1 {
		t.Error("SampleSmall requires feed-cell insertion")
	}
}

func TestRouteUnconstrainedBaseline(t *testing.T) {
	ckt := circuit.SampleSmall()
	con := route(t, ckt, engine.Config{UseConstraints: true})
	unc := route(t, ckt, engine.Config{UseConstraints: false})
	// The unconstrained run still reports delays on the constraint paths.
	if unc.Delay <= 0 {
		t.Fatal("unconstrained run must evaluate the constraint paths")
	}
	// The constrained run must never be slower on the worst path.
	if con.Delay > unc.Delay+1e-6 {
		t.Errorf("constrained delay %v worse than unconstrained %v", con.Delay, unc.Delay)
	}
}

// rebuildDensity recomputes the density state from scratch from the final
// graphs; it must match the incrementally maintained one.
func rebuildDensity(res *engine.Result) *density.State {
	d := density.New(res.Ckt.Channels(), res.Ckt.Cols)
	for _, g := range res.Graphs {
		for _, e := range g.AliveEdges() {
			ed := &g.Edges[e]
			if ed.Kind != rgraph.ETrunk {
				continue
			}
			d.Add(ed.Ch, ed.X1, ed.X2, g.Pitch)
			if ed.Bridge {
				d.AddBridge(ed.Ch, ed.X1, ed.X2, g.Pitch)
			}
		}
	}
	return d
}

func TestDensityStateConsistent(t *testing.T) {
	for _, cfg := range []engine.Config{{UseConstraints: true}, {UseConstraints: false}} {
		res := route(t, circuit.SampleSmall(), cfg)
		want := rebuildDensity(res)
		for ch := 0; ch < res.Ckt.Channels(); ch++ {
			if got, w := res.Dens.Channel(ch), want.Channel(ch); got != w {
				t.Errorf("cfg=%+v channel %d: incremental %+v != scratch %+v", cfg, ch, got, w)
			}
		}
	}
}

func TestRouteDeterministic(t *testing.T) {
	a := route(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	b := route(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if a.Delay != b.Delay || a.TotalWirelenUm != b.TotalWirelenUm {
		t.Fatalf("non-deterministic: (%v,%v) vs (%v,%v)", a.Delay, a.TotalWirelenUm, b.Delay, b.TotalWirelenUm)
	}
	for n := range a.WirelenUm {
		if a.WirelenUm[n] != b.WirelenUm[n] {
			t.Fatalf("net %d wirelength differs between runs", n)
		}
	}
}

func TestRouteDifferentialPairMirrored(t *testing.T) {
	res := route(t, circuit.SampleDiff(), engine.Config{UseConstraints: true})
	// Nets 0 (q) and 1 (qb) must have identical alive edge sets.
	ga, gb := res.Graphs[0], res.Graphs[1]
	if len(ga.Edges) != len(gb.Edges) {
		t.Fatalf("pair graphs differ in size")
	}
	for e := range ga.Edges {
		if ga.Edges[e].Alive != gb.Edges[e].Alive {
			t.Fatalf("edge %d alive mismatch across pair: %v vs %v", e, ga.Edges[e].Alive, gb.Edges[e].Alive)
		}
	}
	// Both routed as trees of equal length (parallel wiring).
	if math.Abs(res.WirelenUm[0]-res.WirelenUm[1]) > 1e-9 {
		t.Fatalf("pair lengths differ: %v vs %v", res.WirelenUm[0], res.WirelenUm[1])
	}
}

func TestRouteElmoreModel(t *testing.T) {
	lum := route(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	elm := route(t, circuit.SampleSmall(), engine.Config{UseConstraints: true, DelayModel: engine.Elmore, RPerUm: 0.0005})
	if elm.Delay <= 0 {
		t.Fatal("Elmore run reported no delay")
	}
	// With small wire resistance the Elmore delay must be close to (and
	// at least) the lumped fan-in + total-cap delay on the same topology.
	if elm.Delay < lum.Delay*0.5 || elm.Delay > lum.Delay*2 {
		t.Errorf("Elmore delay %v implausible vs lumped %v", elm.Delay, lum.Delay)
	}
}

func TestRoutePhasesTraced(t *testing.T) {
	res := route(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	names := map[string]bool{}
	for _, ps := range res.Phases {
		names[ps.Name] = true
	}
	for _, want := range []string{"initial", "recover-violations", "improve-delay", "improve-area"} {
		if !names[want] {
			t.Errorf("phase %q missing from result", want)
		}
	}
	if res.Phases[0].Deletions == 0 {
		t.Error("initial phase deleted nothing; graphs had no redundancy?")
	}
}

func TestRouteSkipImprovement(t *testing.T) {
	res := route(t, circuit.SampleSmall(), engine.Config{UseConstraints: true, SkipImprovement: true})
	if len(res.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(res.Phases))
	}
	for n, g := range res.Graphs {
		if !g.IsTree() {
			t.Errorf("net %s not a tree", res.Ckt.Nets[n].Name)
		}
	}
}

// TestTentativeCacheAblationExact is the oracle for the d'(e) shortcut
// (A2): at several points of an initial routing, deleting any candidate
// edge outside a net's tentative tree must leave the tree length exactly
// unchanged, which is what dPrime returns for it without a Dijkstra run.
func TestTentativeCacheAblationExact(t *testing.T) {
	for _, build := range []func() *circuit.Circuit{circuit.SampleSmall, circuit.SampleDiffCross} {
		r := newTestRouter(t, build(), engine.Config{UseConstraints: true})
		checked := 0
		for step := 0; ; step++ {
			if step%4 == 0 {
				for n, g := range r.graphs {
					for _, e := range g.NonBridges() {
						if r.trees[n].InTree[e] {
							continue
						}
						l, err := g.LengthExcluding(e)
						if err != nil {
							t.Fatalf("step %d net %d edge %d: %v", step, n, e, err)
						}
						if l != r.wl[n] || r.dPrime(n, e) != l {
							t.Fatalf("step %d net %d edge %d: LengthExcluding %v, dPrime %v, wl %v",
								step, n, e, l, r.dPrime(n, e), r.wl[n])
						}
						checked++
					}
				}
			}
			best, ok := r.selectEdge(nil, false)
			if !ok {
				break
			}
			if err := r.deleteEdge(int(best.net), int(best.edge)); err != nil {
				t.Fatal(err)
			}
		}
		if checked == 0 {
			t.Fatal("no off-tree candidate edge checked")
		}
	}
}

func TestRouteInputUntouched(t *testing.T) {
	ckt := circuit.SampleSmall()
	cells := len(ckt.Cells)
	cols := ckt.Cols
	_ = route(t, ckt, engine.Config{UseConstraints: true})
	if len(ckt.Cells) != cells || ckt.Cols != cols {
		t.Fatal("Route mutated its input circuit")
	}
	if err := ckt.Validate(); err != nil {
		t.Fatalf("input circuit damaged: %v", err)
	}
}

func TestTerminalPositionsResolved(t *testing.T) {
	res := route(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	// In the final trees every terminal connects through at least one of
	// its candidate positions, and every used position is genuine.
	for n, g := range res.Graphs {
		terms := res.Ckt.Terminals(n)
		for ti, tv := range g.TermVert {
			used := 0
			for _, e := range g.AliveEdges() {
				ed := &g.Edges[e]
				if ed.Kind == rgraph.ECorr && (ed.U == tv || ed.V == tv) {
					used++
				}
			}
			if used == 0 {
				t.Errorf("net %s terminal %s unconnected", res.Ckt.Nets[n].Name, res.Ckt.PinName(terms[ti]))
			}
			if used > len(res.Ckt.PositionsOf(terms[ti])) {
				t.Errorf("net %s terminal %s uses %d positions", res.Ckt.Nets[n].Name, res.Ckt.PinName(terms[ti]), used)
			}
		}
	}
}

func TestPhaseDeletionKinds(t *testing.T) {
	res := route(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	initial := res.Phases[0]
	sum := 0
	for _, c := range initial.ByKind {
		sum += c
	}
	if sum != initial.Deletions {
		t.Fatalf("ByKind sums to %d, Deletions = %d", sum, initial.Deletions)
	}
	if initial.ByKind[rgraph.ETrunk] == 0 {
		t.Error("no trunk deletions recorded; trunk-first rule inert?")
	}
}
