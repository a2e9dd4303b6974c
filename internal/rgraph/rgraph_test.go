package rgraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/grid"
)

// feedsFor picks, for every row the net crosses, the first feed slot of
// that row — a stand-in for the real assignment pass in package feed.
func feedsFor(t *testing.T, ckt *circuit.Circuit, geo *grid.Geometry, net int) []FeedPos {
	t.Helper()
	minCh, maxCh := 1<<30, -1
	for _, tr := range ckt.Terminals(net) {
		for _, pos := range ckt.PositionsOf(tr) {
			if pos.Channel < minCh {
				minCh = pos.Channel
			}
			if pos.Channel > maxCh {
				maxCh = pos.Channel
			}
		}
	}
	var feeds []FeedPos
	for r := minCh; r < maxCh; r++ {
		slots := geo.FeedSlots(r)
		if len(slots) == 0 {
			t.Fatalf("net %s: no feed slots in row %d", ckt.Nets[net].Name, r)
		}
		feeds = append(feeds, FeedPos{Row: r, Col: slots[0].Col})
	}
	return feeds
}

func buildAll(t *testing.T, ckt *circuit.Circuit) (*grid.Geometry, []*Graph) {
	t.Helper()
	if err := ckt.Validate(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	geo, err := grid.New(ckt)
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*Graph, len(ckt.Nets))
	for n := range ckt.Nets {
		g, err := Build(ckt, geo, n, feedsFor(t, ckt, geo, n))
		if err != nil {
			t.Fatalf("build net %s: %v", ckt.Nets[n].Name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("net %s: %v", ckt.Nets[n].Name, err)
		}
		graphs[n] = g
	}
	return geo, graphs
}

func TestBuildSampleSmall(t *testing.T) {
	ckt := circuit.SampleSmall()
	_, graphs := buildAll(t, ckt)
	// Net n1 (b0.Z in channel 1, g1.A in channel 0, g2.A in channel 1)
	// must contain a feedthrough edge through row 0.
	g := graphs[1]
	hasFeed := false
	for _, e := range g.Edges {
		if e.Kind == EFeed && e.Ch == 0 {
			hasFeed = true
		}
	}
	if !hasFeed {
		t.Fatal("net n1 lacks the row-0 feedthrough edge")
	}
	// Driver b0.Z has two taps: two correspondence edges from its terminal.
	corr := 0
	for _, e := range g.Edges {
		if e.Kind == ECorr && (g.Verts[e.U].Kind == VTerm && g.Verts[e.U].Term == 0 ||
			g.Verts[e.V].Kind == VTerm && g.Verts[e.V].Term == 0) {
			corr++
		}
	}
	if corr != 2 {
		t.Fatalf("driver has %d correspondence edges, want 2", corr)
	}
	// Dual-tap terminals create cycles: there must be deletable edges.
	if len(g.NonBridges()) == 0 {
		t.Fatal("expected non-bridge edges in n1's graph")
	}
}

func TestBuildRejectsMissingFeedthrough(t *testing.T) {
	ckt := circuit.SampleSmall()
	geo, err := grid.New(ckt)
	if err != nil {
		t.Fatal(err)
	}
	// Net n1 crosses row 0 but we pass no feedthroughs.
	if _, err := Build(ckt, geo, 1, nil); err == nil {
		t.Fatal("want error for missing feedthrough")
	}
}

// bruteBridges recomputes bridge flags by deleting each edge in turn and
// checking connectivity.
func bruteBridges(g *Graph) []bool {
	out := make([]bool, len(g.Edges))
	for e := range g.Edges {
		if !g.Edges[e].Alive {
			continue
		}
		g.Edges[e].Alive = false
		out[e] = !g.connectedFromAlive()
		g.Edges[e].Alive = true
	}
	return out
}

func TestBridgesMatchBruteForce(t *testing.T) {
	ckt := circuit.SampleSmall()
	_, graphs := buildAll(t, ckt)
	for n, g := range graphs {
		want := bruteBridges(g)
		for e := range g.Edges {
			if g.Edges[e].Alive && g.Edges[e].Bridge != want[e] {
				t.Errorf("net %s edge %d (%s): bridge=%v brute=%v",
					ckt.Nets[n].Name, e, g.Edges[e].Kind, g.Edges[e].Bridge, want[e])
			}
		}
	}
}

func TestBridgesMatchBruteForceAfterRandomDeletions(t *testing.T) {
	ckt := circuit.SampleSmall()
	f := func(seed int64) bool {
		geo, _ := grid.New(ckt)
		g, err := Build(ckt, geo, 1, feedsFor(t, ckt, geo, 1))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for {
			nb := g.NonBridges()
			if len(nb) == 0 {
				break
			}
			if _, err := g.Delete(nb[rng.Intn(len(nb))]); err != nil {
				return false
			}
			g.RecomputeBridges()
			want := bruteBridges(g)
			for e := range g.Edges {
				if g.Edges[e].Alive && g.Edges[e].Bridge != want[e] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteRefusesBridge(t *testing.T) {
	ckt := circuit.SampleSmall()
	_, graphs := buildAll(t, ckt)
	g := graphs[1]
	for e := range g.Edges {
		if g.Edges[e].Alive && g.Edges[e].Bridge {
			if _, err := g.Delete(e); err == nil {
				t.Fatal("Delete accepted a bridge")
			}
			return
		}
	}
	t.Skip("no bridge in fixture")
}

// TestDeletionToTreeInvariants drives random graphs to completion and
// checks the §3.1 wiring conditions: the result is a tree, contains every
// terminal, keeps exactly one correspondence edge per terminal, and stays
// connected the whole way.
func TestDeletionToTreeInvariants(t *testing.T) {
	for _, build := range []func() *circuit.Circuit{circuit.SampleSmall, circuit.SampleDiff} {
		ckt := build()
		f := func(seed int64) bool {
			geo, _ := grid.New(ckt)
			rng := rand.New(rand.NewSource(seed))
			for n := range ckt.Nets {
				g, err := Build(ckt, geo, n, feedsFor(t, ckt, geo, n))
				if err != nil {
					t.Logf("net %s: %v", ckt.Nets[n].Name, err)
					return false
				}
				for {
					nb := g.NonBridges()
					if len(nb) == 0 {
						break
					}
					if _, err := g.Delete(nb[rng.Intn(len(nb))]); err != nil {
						return false
					}
					g.RecomputeBridges()
					if err := g.Validate(); err != nil {
						t.Logf("net %s: %v", ckt.Nets[n].Name, err)
						return false
					}
				}
				if !g.IsTree() {
					return false
				}
				// Every terminal keeps at least one correspondence edge;
				// degree 2 means both equivalent positions are used as an
				// internal through-connection, never more than the
				// terminal's position count.
				for ti, tv := range g.TermVert {
					d := g.degree(tv)
					if d < 1 || d > len(g.adj[tv]) {
						t.Logf("net %s terminal %d degree %d", ckt.Nets[n].Name, ti, d)
						return false
					}
				}
				// Tree edge count: alive edges == touched vertices - 1.
				touched := map[int]bool{}
				for _, e := range g.AliveEdges() {
					touched[g.Edges[e].U] = true
					touched[g.Edges[e].V] = true
				}
				if g.AliveCount() != len(touched)-1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(13))}); err != nil {
			t.Fatalf("%s: %v", ckt.Name, err)
		}
	}
}

func TestTentativeTree(t *testing.T) {
	ckt := circuit.SampleSmall()
	_, graphs := buildAll(t, ckt)
	for n, g := range graphs {
		tree, err := g.Tentative()
		if err != nil {
			t.Fatalf("net %s: %v", ckt.Nets[n].Name, err)
		}
		if tree.SinkDist[0] != 0 {
			t.Errorf("net %s: driver distance %v", ckt.Nets[n].Name, tree.SinkDist[0])
		}
		var sum float64
		for _, e := range tree.Edges {
			if !g.Edges[e].Alive {
				t.Errorf("net %s: dead edge in tentative tree", ckt.Nets[n].Name)
			}
			sum += g.Edges[e].Len
		}
		if math.Abs(sum-tree.Length) > 1e-9 {
			t.Errorf("net %s: length mismatch", ckt.Nets[n].Name)
		}
		for ti := 1; ti < len(tree.SinkDist); ti++ {
			if tree.SinkDist[ti] <= 0 {
				t.Errorf("net %s: sink %d at zero distance", ckt.Nets[n].Name, ti)
			}
			if tree.SinkDist[ti] > tree.Length+1e-9 {
				t.Errorf("net %s: sink dist exceeds union length", ckt.Nets[n].Name)
			}
		}
	}
}

func TestLengthExcludingTreeEdgeGrowsOrDisconnects(t *testing.T) {
	ckt := circuit.SampleSmall()
	_, graphs := buildAll(t, ckt)
	g := graphs[1]
	tree, err := g.Tentative()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tree.Edges {
		if g.Edges[e].Bridge {
			if _, err := g.LengthExcluding(e); err == nil {
				t.Errorf("excluding bridge %d should disconnect", e)
			}
			continue
		}
		l, err := g.LengthExcluding(e)
		if err != nil {
			t.Errorf("excluding non-bridge %d: %v", e, err)
			continue
		}
		// Removing a used shortest-path edge cannot shorten any sink path;
		// the union stays within the total alive length and is positive.
		if l <= 0 {
			t.Errorf("excluded length %v", l)
		}
	}
	// Excluding an edge outside the tentative tree leaves sink distances
	// unchanged, so the union length is unchanged.
	for e := range g.Edges {
		if !g.Edges[e].Alive || tree.InTree[e] || g.Edges[e].Bridge {
			continue
		}
		l, err := g.LengthExcluding(e)
		if err != nil {
			t.Fatalf("excluding %d: %v", e, err)
		}
		if math.Abs(l-tree.Length) > 1e-9 {
			t.Errorf("excluding non-tree edge %d changed length %v -> %v", e, tree.Length, l)
		}
	}
}

func TestElmoreDelaysTwoPin(t *testing.T) {
	ckt := circuit.SampleDiff()
	geo, _ := grid.New(ckt)
	// Net q: dr.Q -> rc.IN, both single positions in channel 1.
	g, err := Build(ckt, geo, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := g.Tentative()
	if err != nil {
		t.Fatal(err)
	}
	r := 0.001 // kΩ/µm
	d := g.ElmoreDelays(tree, ckt, r)
	if d[0] != 0 {
		t.Fatalf("driver Elmore delay %v", d[0])
	}
	if d[1] <= 0 {
		t.Fatalf("sink Elmore delay %v", d[1])
	}
	// Hand computation along the single path: every edge contributes
	// R·(C/2 + Cbelow), and the sink pin load (25 fF) hangs at the end.
	capPerUm := ckt.Tech.WireCapPerUm(1)
	// Path edges in order driver->sink with their downstream caps.
	// Total path: corr(0) + branch + trunk + branch + corr(0).
	bl := ckt.Tech.BranchLen
	span := tree.Length - 2*bl // trunk length
	cBr := bl * capPerUm
	cTr := span * capPerUm
	want := r * bl * (cBr/2 + cTr + cBr + 25)
	want += r * span * (cTr/2 + cBr + 25)
	want += r * bl * (cBr/2 + 25)
	if math.Abs(d[1]-want) > 1e-9 {
		t.Fatalf("Elmore = %v, want %v", d[1], want)
	}
}

func TestFinalTreeMatchesAliveEdges(t *testing.T) {
	ckt := circuit.SampleSmall()
	_, graphs := buildAll(t, ckt)
	g := graphs[1]
	rng := rand.New(rand.NewSource(17))
	for {
		nb := g.NonBridges()
		if len(nb) == 0 {
			break
		}
		if _, err := g.Delete(nb[rng.Intn(len(nb))]); err != nil {
			t.Fatal(err)
		}
		g.RecomputeBridges()
	}
	ft := g.FinalTree()
	if len(ft.Edges) != g.AliveCount() {
		t.Fatalf("final tree %d edges, alive %d", len(ft.Edges), g.AliveCount())
	}
	tt, err := g.Tentative()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ft.Length-tt.Length) > 1e-9 {
		t.Fatalf("finished net: tentative %v != final %v", tt.Length, ft.Length)
	}
}

// TestDropScratchKeepsGraphUsable checks that a graph whose workspace was
// dropped answers every workspace-backed query exactly as a twin that kept
// its workspace: tentative trees, d′ lengths, Elmore delays, validation,
// and a deletion with its bridge update.
func TestDropScratchKeepsGraphUsable(t *testing.T) {
	ckt := circuit.SampleSmall()
	_, graphs := buildAll(t, ckt)
	for n, g := range graphs {
		twin := g.Clone()
		g.DropScratch()
		for _, h := range []*Graph{g, twin} {
			if err := h.Validate(); err != nil {
				t.Fatalf("net %d: %v", n, err)
			}
		}
		want, err := twin.Tentative()
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Tentative()
		if err != nil {
			t.Fatal(err)
		}
		if got.Length != want.Length || len(got.Edges) != len(want.Edges) {
			t.Fatalf("net %d: tentative tree %v/%d edges after DropScratch, want %v/%d", n, got.Length, len(got.Edges), want.Length, len(want.Edges))
		}
		wd, gd := twin.ElmoreDelays(want, ckt, 0.0005), g.ElmoreDelays(got, ckt, 0.0005)
		for i := range wd {
			if gd[i] != wd[i] {
				t.Fatalf("net %d sink %d: Elmore delay %v after DropScratch, want %v", n, i, gd[i], wd[i])
			}
		}
		cands := g.NonBridges()
		for _, e := range cands {
			wl, werr := twin.LengthExcluding(e)
			gl, gerr := g.LengthExcluding(e)
			if gl != wl || (gerr == nil) != (werr == nil) {
				t.Fatalf("net %d edge %d: d′ %v (%v) after DropScratch, want %v (%v)", n, e, gl, gerr, wl, werr)
			}
		}
		if len(cands) == 0 {
			continue
		}
		g.DropScratch()
		gr, err := g.Delete(cands[0])
		if err != nil {
			t.Fatal(err)
		}
		wr, err := twin.Delete(cands[0])
		if err != nil {
			t.Fatal(err)
		}
		gf, wf := g.RecomputeBridges(), twin.RecomputeBridges()
		if fmt.Sprint(gr, gf) != fmt.Sprint(wr, wf) {
			t.Fatalf("net %d: deletion removed/flipped %v %v after DropScratch, want %v %v", n, gr, gf, wr, wf)
		}
	}
}
