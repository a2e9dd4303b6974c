package core

import (
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
)

// sampleDiffSplit is sampleDiffTaps with a receiver whose halves drive
// separate outputs (IN→Z, INB→ZB), each to its own pad under its own
// constraint from PIN: net q lies in P0 only and its mate qb in P1 only,
// so each half reads a margin only through its mate. POUT gets a second
// column, so net nz has a candidate too.
func sampleDiffSplit() *circuit.Circuit {
	c := sampleDiffTaps()
	c.Name = "sample-diff-split"
	c.Lib = append(c.Lib, circuit.CellType{
		Name: "RCV2S", Width: 5,
		Pins: []circuit.PinDef{
			{Name: "IN", Dir: circuit.In, Side: circuit.Bottom, Offsets: []int{0, 2}, Fin: 25},
			{Name: "INB", Dir: circuit.In, Side: circuit.Bottom, Offsets: []int{1, 3}, Fin: 25},
			{Name: "Z", Dir: circuit.Out, Side: circuit.Top, Offsets: []int{3}, Tf: 0.28, Td: 0.21},
			{Name: "ZB", Dir: circuit.Out, Side: circuit.Top, Offsets: []int{4}, Tf: 0.28, Td: 0.21},
		},
		Arcs: []circuit.Arc{{From: "IN", To: "Z", T0: 75}, {From: "INB", To: "ZB", T0: 75}},
	})
	rc := slices.IndexFunc(c.Cells, func(cl circuit.Cell) bool { return cl.Name == "rc" })
	// IN, INB and Z keep their pin indices, so the nets need no edit.
	c.Cells[rc].Type = len(c.Lib) - 1
	c.Nets = append(c.Nets, circuit.Net{Name: "nzb", Pitch: 1, DiffMate: circuit.NoNet,
		Pins: []circuit.PinRef{{Cell: rc, Pin: 3}}})
	pout := slices.IndexFunc(c.Ext, func(x circuit.ExtPin) bool { return x.Name == "POUT" })
	c.Ext[pout].Cols = []int{20, 22}
	c.Ext = append(c.Ext, circuit.ExtPin{Name: "POUT2", Net: len(c.Nets) - 1, Side: circuit.Top,
		Cols: []int{21}, Dir: circuit.Out, Fin: 30})
	c.Cons = append(c.Cons, circuit.Constraint{Name: "P1", Limit: 700,
		From: []circuit.PinRef{circuit.Ext(0)}, To: []circuit.PinRef{circuit.Ext(len(c.Ext) - 1)}})
	return c
}

// sampleTapDetour is one buffer whose dual-tap output x drives pads on
// both sides, so the tentative tree uses both taps and leaves the trunk
// between them off-tree. Pad PO has a second column at the far right,
// which closes a second cycle through each tap. Without the trunk between
// the taps, d′ of a tap edge grows from a short detour to the long way
// round, while the tentative tree stays as it is: only deleteEdge's own
// touch of x invalidates the cached criteria of the tap edges.
func sampleTapDetour() *circuit.Circuit {
	c := &circuit.Circuit{Name: "sample-tap-detour", Tech: circuit.DefaultTech, Rows: 1, Cols: 30, Lib: circuit.SampleLib()}
	c.Cells = []circuit.Cell{{Name: "b", Type: circuit.SampleBUF, Row: 0, Col: 10}}
	c.Nets = []circuit.Net{
		{Name: "nin", Pitch: 1, DiffMate: circuit.NoNet, Pins: []circuit.PinRef{{Cell: 0, Pin: 0}}},
		{Name: "x", Pitch: 1, DiffMate: circuit.NoNet, Pins: []circuit.PinRef{{Cell: 0, Pin: 1}}},
	}
	c.Ext = []circuit.ExtPin{
		{Name: "PIN", Net: 0, Side: circuit.Bottom, Cols: []int{10}, Dir: circuit.In, Tf: 0.2, Td: 0.15},
		{Name: "PO", Net: 1, Side: circuit.Top, Cols: []int{1, 28}, Dir: circuit.Out, Fin: 30},
		{Name: "PR", Net: 1, Side: circuit.Top, Cols: []int{20}, Dir: circuit.Out, Fin: 30},
	}
	c.Cons = []circuit.Constraint{{Name: "P0", Limit: 400,
		From: []circuit.PinRef{circuit.Ext(0)}, To: []circuit.PinRef{circuit.Ext(1)}}}
	return c
}

// isBestDirty reports whether net n's dirty bit is up.
func (r *router) isBestDirty(n int) bool {
	return r.dirtyBest[n>>6]&(1<<(uint(n)&63)) != 0
}

// TestTouchConsReachesEveryReader checks the invalidation rule a margin
// change relies on: with every dirty bit down, touchCons(p) must leave
// every net whose criteria read p dirty and with a new timing epoch. A
// net reads p when p is a constraint of the net or of its differential
// mate (delayCriteria scores both halves of a pair). sampleDiffSplit
// makes the mate the only path for some (net, constraint) pairs.
func TestTouchConsReachesEveryReader(t *testing.T) {
	ckts := []*circuit.Circuit{sampleDiffSplit(), sampleDiffTaps(), circuit.SampleSmall()}
	viaMate := 0
	for _, ckt := range ckts {
		r := newTestRouter(t, ckt, engine.Config{UseConstraints: true})
		for p := range r.ckt.Cons {
			r.selectEdge(nil, false)
			for n := range r.graphs {
				if r.isBestDirty(n) {
					t.Fatalf("%s: net %s dirty after a full selection", ckt.Name, r.ckt.Nets[n].Name)
				}
			}
			before := slices.Clone(r.timEpoch)
			r.touchCons(p)
			for n := range r.graphs {
				pair, k := r.withMate(n)
				own := slices.Contains(r.dg.ConsOfNet(n), p)
				mate := k == 2 && slices.Contains(r.dg.ConsOfNet(pair[1]), p)
				if !own && !mate {
					continue
				}
				if !own {
					viaMate++
				}
				if !r.isBestDirty(n) {
					t.Errorf("%s: touchCons(%d) left net %s clean", ckt.Name, p, r.ckt.Nets[n].Name)
				}
				if r.timEpoch[n] == before[n] {
					t.Errorf("%s: touchCons(%d) left net %s at timing epoch %d", ckt.Name, p, r.ckt.Nets[n].Name, before[n])
				}
			}
		}
	}
	if viaMate == 0 {
		t.Fatal("no net reads a constraint only through its mate: the mate rule is unchecked")
	}
}

// TestDeleteEdgeInvalidatesCriteria deletes each candidate of each net in
// turn, on a fresh router whose caches a full selection has just filled,
// and runs the oracle, which also compares every current delayCriteria
// entry with a from-scratch one. A deletion that leaves the tentative
// tree as it is re-analyzes no constraint, so only deleteEdge's own touch
// of the edited nets can invalidate criteria whose d′ ran through the
// deleted edge; sampleTapDetour makes such deletions.
func TestDeleteEdgeInvalidatesCriteria(t *testing.T) {
	detours := 0
	for _, build := range []func() *circuit.Circuit{sampleTapDetour, sampleDiffSplit, circuit.SampleSmall} {
		base := newTestRouter(t, build(), engine.Config{UseConstraints: true})
		for n, g := range base.graphs {
			for _, f := range g.NonBridges() {
				r := newTestRouter(t, build(), engine.Config{UseConstraints: true})
				r.selectEdge(nil, false)
				lens := map[int]float64{}
				for _, e := range r.graphs[n].NonBridges() {
					if r.trees[n].InTree[e] {
						lens[e], _ = r.graphs[n].LengthExcluding(e)
					}
				}
				inTree := slices.Clone(r.trees[n].InTree)
				if err := r.deleteEdge(n, f); err != nil {
					t.Fatal(err)
				}
				checkSelection(t, r, nil, false, 0)
				if !slices.Equal(inTree, r.trees[n].InTree) || len(r.dg.ConsOfNet(n)) == 0 {
					continue
				}
				for _, e := range r.graphs[n].NonBridges() {
					if l, err := r.graphs[n].LengthExcluding(e); err == nil && r.trees[n].InTree[e] && l != lens[e] {
						detours++
						break
					}
				}
			}
		}
	}
	if detours == 0 {
		t.Fatal("no deletion kept the tree and moved d′ of a constrained tree edge: the deleteEdge touch is unchecked")
	}
}
