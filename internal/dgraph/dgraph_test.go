package dgraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
)

func mustGraph(t *testing.T, ckt *circuit.Circuit) *Graph {
	t.Helper()
	if err := ckt.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	g, err := New(ckt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphShape(t *testing.T) {
	ckt := circuit.SampleSmall()
	g := mustGraph(t, ckt)
	// Every net contributes one arc per fan-out.
	for n := range ckt.Nets {
		if got, want := len(g.netArcs[n]), len(ckt.Fanouts(n)); got != want {
			t.Errorf("net %s: %d arcs, want %d", ckt.Nets[n].Name, got, want)
		}
	}
	// DFF is sequential: no cell arc may leave its D or CK inputs.
	for _, a := range g.Arcs {
		if a.Net != NoNet {
			continue
		}
		fr := g.Verts[a.From]
		if !fr.IsExt() && ckt.Lib[ckt.Cells[fr.Cell].Type].Sequential {
			t.Errorf("cell arc out of sequential cell %s", ckt.PinName(fr))
		}
	}
}

// bruteLongest enumerates all S->T paths of the sample circuit's delay
// graph by DFS and returns the max delay. Only usable on tiny circuits.
func bruteLongest(g *Graph, tm *Timing, p int) float64 {
	ckt := g.Ckt
	cons := &ckt.Cons[p]
	sinkSet := map[int]bool{}
	for _, r := range cons.To {
		if v := g.VertexOf(r); v >= 0 {
			sinkSet[v] = true
		}
	}
	best := math.Inf(-1)
	var dfs func(v int, d float64)
	dfs = func(v int, d float64) {
		if sinkSet[v] && d > best {
			best = d
		}
		for _, a := range g.out[v] {
			dfs(g.Arcs[a].To, d+tm.ArcDelay[a])
		}
	}
	for _, r := range cons.From {
		if v := g.VertexOf(r); v >= 0 {
			dfs(v, 0)
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

func TestAnalyzeMatchesBruteForce(t *testing.T) {
	for _, build := range []func() *circuit.Circuit{circuit.SampleSmall, circuit.SampleDiff} {
		ckt := build()
		g := mustGraph(t, ckt)
		tm := g.NewTiming()
		rng := rand.New(rand.NewSource(7))
		wl := make([]float64, len(ckt.Nets))
		for i := range wl {
			wl[i] = rng.Float64() * 500
		}
		tm.SetLumped(wl)
		tm.Analyze()
		for p := range ckt.Cons {
			want := bruteLongest(g, tm, p)
			if math.Abs(tm.Cons[p].Worst-want) > 1e-9 {
				t.Errorf("%s %s: Worst = %v, brute force = %v", ckt.Name, ckt.Cons[p].Name, tm.Cons[p].Worst, want)
			}
			if math.Abs(tm.Cons[p].Margin-(ckt.Cons[p].Limit-want)) > 1e-9 {
				t.Errorf("%s %s: Margin inconsistent", ckt.Name, ckt.Cons[p].Name)
			}
		}
	}
}

func TestLumpedArcDelay(t *testing.T) {
	ckt := circuit.SampleSmall()
	g := mustGraph(t, ckt)
	// Net n1: driver b0.Z (Tf 0.15, Td 0.12), fan-outs g1.A + g2.A = 44 fF.
	got := g.LumpedArcDelay(1, 100)
	want := 44*0.15 + 100*ckt.Tech.CapPerUm*0.12
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("LumpedArcDelay = %v, want %v", got, want)
	}
	// Zero length keeps only the fan-in term.
	if got := g.LumpedArcDelay(1, 0); math.Abs(got-44*0.15) > 1e-12 {
		t.Fatalf("zero-length delay = %v", got)
	}
}

func TestWorstMonotoneInWireLength(t *testing.T) {
	ckt := circuit.SampleSmall()
	g := mustGraph(t, ckt)
	f := func(seed int64, bump uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		wl := make([]float64, len(ckt.Nets))
		for i := range wl {
			wl[i] = rng.Float64() * 400
		}
		tm := g.NewTiming()
		tm.SetLumped(wl)
		tm.Analyze()
		before := tm.Cons[0].Worst
		n := int(bump) % len(wl)
		wl[n] += 250
		tm.SetLumped(wl)
		tm.Analyze()
		return tm.Cons[0].Worst >= before-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaIfNetDelay(t *testing.T) {
	ckt := circuit.SampleSmall()
	g := mustGraph(t, ckt)
	tm := g.NewTiming()
	wl := make([]float64, len(ckt.Nets))
	for i := range wl {
		wl[i] = 100
	}
	tm.SetLumped(wl)
	tm.Analyze()
	// Raising a net's arc delay by x must raise the pessimistic arrival
	// increase to at least x on nets that lie on the critical path, and
	// never be negative.
	crit := tm.CriticalNets(0)
	if len(crit) == 0 {
		t.Fatal("no critical nets found")
	}
	for _, n := range crit {
		cur := g.LumpedArcDelay(n, wl[n])
		delta := tm.DeltaIfNetDelay(0, n, cur+50)
		if delta < 50-1e-9 {
			t.Errorf("critical net %s: delta = %v, want >= 50", ckt.Nets[n].Name, delta)
		}
		if d0 := tm.DeltaIfNetDelay(0, n, cur); math.Abs(d0) > 1e-9 {
			t.Errorf("unchanged delay must give zero delta, got %v", d0)
		}
		if dm := tm.DeltaIfNetDelay(0, n, cur-30); dm != 0 {
			t.Errorf("decreased delay must clamp to zero, got %v", dm)
		}
	}
}

// TestDeltaPessimism verifies the paper's claim that LM is exact for arcs
// whose head is on the critical path and pessimistic (an upper bound on the
// arrival increase) otherwise: worst arrival after actually applying the
// new delay never exceeds lpF-based prediction.
func TestDeltaPessimism(t *testing.T) {
	ckt := circuit.SampleSmall()
	g := mustGraph(t, ckt)
	f := func(seed int64, pick uint8, extraRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		wl := make([]float64, len(ckt.Nets))
		for i := range wl {
			wl[i] = rng.Float64() * 300
		}
		tm := g.NewTiming()
		tm.SetLumped(wl)
		tm.Analyze()
		n := int(pick) % len(wl)
		extra := float64(extraRaw % 1000)
		dNew := g.LumpedArcDelay(n, wl[n]+extra)
		predicted := tm.Cons[0].Worst + tm.DeltaIfNetDelay(0, n, dNew)
		wl[n] += extra
		tm.SetLumped(wl)
		tm.Analyze()
		return tm.Cons[0].Worst <= predicted+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalNetsOnPath(t *testing.T) {
	ckt := circuit.SampleSmall()
	g := mustGraph(t, ckt)
	tm := g.NewTiming()
	tm.SetLumped(make([]float64, len(ckt.Nets)))
	tm.Analyze()
	// P0 runs IN0 -> b0 -> ... -> d0.D. With zero wire everywhere the
	// critical path must include nIn (the pad net) and n4 (into d0.D).
	crit := tm.CriticalNets(0)
	has := func(name string) bool {
		for _, n := range crit {
			if ckt.Nets[n].Name == name {
				return true
			}
		}
		return false
	}
	if !has("nIn") || !has("n4") {
		names := make([]string, len(crit))
		for i, n := range crit {
			names[i] = ckt.Nets[n].Name
		}
		t.Fatalf("critical nets %v must include nIn and n4", names)
	}
}

func TestNetSlacksOrdering(t *testing.T) {
	ckt := circuit.SampleSmall()
	g := mustGraph(t, ckt)
	slacks := g.NetSlacks()
	// Nets on no constrained path have +Inf slack.
	for n := range ckt.Nets {
		onCons := len(g.ConsOfNet(n)) > 0
		if onCons && math.IsInf(slacks[n], 1) {
			t.Errorf("net %s on a constraint has infinite slack", ckt.Nets[n].Name)
		}
		if !onCons && !math.IsInf(slacks[n], 1) {
			t.Errorf("net %s off constraints has finite slack %v", ckt.Nets[n].Name, slacks[n])
		}
	}
	// nq (d0.Q output, downstream of the constraint sink) is not in Gd(P0).
	for _, p := range g.ConsOfNet(5) {
		t.Errorf("net nq unexpectedly in constraint %d", p)
	}
}

func TestSetNetArcDelays(t *testing.T) {
	ckt := circuit.SampleSmall()
	g := mustGraph(t, ckt)
	tm := g.NewTiming()
	tm.SetLumped(make([]float64, len(ckt.Nets)))
	// Per-sink (Elmore-style) delays on n1's two fan-outs.
	tm.SetNetArcDelays(1, []float64{10, 90})
	arcs := g.netArcs[1]
	if tm.ArcDelay[arcs[0]] != 10 || tm.ArcDelay[arcs[1]] != 90 {
		t.Fatalf("per-sink delays not applied: %v %v", tm.ArcDelay[arcs[0]], tm.ArcDelay[arcs[1]])
	}
	tm.Analyze()
	if tm.Cons[0].Worst <= 0 {
		t.Fatal("analysis with per-sink delays produced no path")
	}
}

func TestWorst(t *testing.T) {
	ckt := circuit.SampleSmall()
	g := mustGraph(t, ckt)
	tm := g.NewTiming()
	tm.SetLumped(make([]float64, len(ckt.Nets)))
	tm.Analyze()
	if d, v := tm.Worst(); v != 0 || d != tm.Cons[0].Worst || d <= 0 {
		t.Fatalf("zero-wire run should meet the constraint with P0's delay %v, got delay=%v violations=%d", tm.Cons[0].Worst, d, v)
	}
	wl := make([]float64, len(ckt.Nets))
	for i := range wl {
		wl[i] = 1e6 // absurdly long wires must violate
	}
	tm.SetLumped(wl)
	tm.Analyze()
	d, v := tm.Worst()
	if v != 1 || tm.Cons[0].Margin >= 0 {
		t.Fatalf("expected P0 violated, got violations=%d margin=%v", v, tm.Cons[0].Margin)
	}
	if d != tm.Cons[0].Worst {
		t.Fatalf("worst delay %v, want P0's %v", d, tm.Cons[0].Worst)
	}
}
