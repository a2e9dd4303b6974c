package dgraph_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/feed"
	"repro/internal/gen"
)

// TestWidenedCopyKeepsDelayGraph pins what lets each engine build one
// delay graph per route: feed assignment's widened copy of a circuit has
// the delay graph of its input. Feed cells have no pins, so the added
// cells and the added feed type contribute no vertex or arc. The two
// graphs must agree in their vertices, arcs, per-net arc lists and
// constraint sets, and one lumped analysis must give bit-identical
// results, slacks included. Every circuit must actually be widened.
func TestWidenedCopyKeepsDelayGraph(t *testing.T) {
	var params []gen.Params
	for _, name := range gen.DatasetNames() {
		p, err := gen.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		params = append(params, p)
	}
	large := gen.StressParams()
	large.Cells, large.Rows = 3000, 18
	params = append(params, large)
	for _, p := range params {
		ckt, err := gen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		g0, err := dgraph.New(ckt)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := feed.Assign(ckt, g0.SlackOrder())
		if err != nil {
			t.Fatal(err)
		}
		if fr.AddedPitches == 0 || len(fr.Ckt.Cells) == len(ckt.Cells) {
			t.Fatalf("%s: feed assignment inserted no feed cells", p.Name)
		}
		g1, err := dgraph.New(fr.Ckt)
		if err != nil {
			t.Fatal(err)
		}
		compareGraphs(t, p.Name, g0, g1)
	}
}

func compareGraphs(t *testing.T, name string, g0, g1 *dgraph.Graph) {
	t.Helper()
	ckt := g0.Ckt
	if !reflect.DeepEqual(g0.Verts, g1.Verts) || !reflect.DeepEqual(g0.Arcs, g1.Arcs) {
		t.Fatalf("%s: vertices or arcs differ (%d/%d vs %d/%d)", name, len(g0.Verts), len(g0.Arcs), len(g1.Verts), len(g1.Arcs))
	}
	for n := range ckt.Nets {
		if !reflect.DeepEqual(g0.NetArcs(n), g1.NetArcs(n)) || !reflect.DeepEqual(g0.ConsOfNet(n), g1.ConsOfNet(n)) {
			t.Fatalf("%s: net %d: arcs or constraints differ", name, n)
		}
	}
	for p := range ckt.Cons {
		s0, k0, in0, to0 := g0.ConsSets(p)
		s1, k1, in1, to1 := g1.ConsSets(p)
		if !reflect.DeepEqual(s0, s1) || !reflect.DeepEqual(k0, k1) || !reflect.DeepEqual(in0, in1) || !reflect.DeepEqual(to0, to1) {
			t.Fatalf("%s: constraint %d: sets differ", name, p)
		}
	}
	wl := lumped(len(ckt.Nets), 40)
	t0, t1 := g0.NewTiming(), g1.NewTiming()
	t0.SetLumped(wl)
	t1.SetLumped(wl)
	t0.Analyze()
	t1.Analyze()
	if !sameBits(t0.ArcDelay, t1.ArcDelay) {
		t.Fatalf("%s: arc delays differ", name)
	}
	for p := range t0.Cons {
		c0, c1 := &t0.Cons[p], &t1.Cons[p]
		if !sameBits(c0.LpF, c1.LpF) || !sameBits(c0.LpR, c1.LpR) ||
			!sameBits([]float64{c0.Worst, c0.Margin}, []float64{c1.Worst, c1.Margin}) {
			t.Fatalf("%s: constraint %d: analysis differs", name, p)
		}
	}
	if !sameBits(g0.NetSlacks(), g1.NetSlacks()) {
		t.Fatalf("%s: net slacks differ", name)
	}
}

// sameBits reports whether two float slices are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
