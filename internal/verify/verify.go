// Package verify checks a finished global routing against the paper's
// structural rules — the kind of post-route audit a production router
// ships. It re-derives everything from scratch (no trust in the router's
// incremental state):
//
//   - every net's graph is a tree spanning all its terminals;
//   - every crossed row has exactly one feedthrough per net, on a real
//     feed slot, with multi-pitch nets on adjacent slots;
//   - no two nets share a feedthrough column;
//   - differential pairs are parallel: identical alive-edge structure at
//     a constant column shift (§4.1);
//   - the incremental density state matches a from-scratch recount;
//   - estimated wire lengths match the final trees.
package verify

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/rgraph"
)

// Problem is one verification finding.
type Problem struct {
	Net  int // offending net, or -1
	Rule string
	Msg  string
}

func (p Problem) String() string {
	return fmt.Sprintf("[%s] %s", p.Rule, p.Msg)
}

// Result collects findings.
type Result struct {
	Problems []Problem
}

// OK reports a clean routing.
func (r *Result) OK() bool { return len(r.Problems) == 0 }

func (r *Result) addf(net int, rule, format string, args ...any) {
	r.Problems = append(r.Problems, Problem{Net: net, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// Parts is the router-agnostic view the checks run against; any router
// producing these pieces can be audited.
type Parts struct {
	Ckt       *circuit.Circuit
	Geo       *grid.Geometry
	Feeds     [][]rgraph.FeedPos
	Graphs    []*rgraph.Graph
	WirelenUm []float64
	Dens      *density.State
	// CheckPairs enables the §4.1 differential-parallelism rule; the
	// sequential baseline does not promise it.
	CheckPairs bool
}

// Routing audits an engine.Result (all rules enabled).
func Routing(r *engine.Result) *Result {
	return Check(Parts{
		Ckt: r.Ckt, Geo: r.Geo, Feeds: r.Feeds, Graphs: r.Graphs,
		WirelenUm: r.WirelenUm, Dens: r.Dens, CheckPairs: true,
	})
}

// Check audits an arbitrary routing.
func Check(res Parts) *Result {
	v := &Result{}
	v.checkTrees(res)
	v.checkFeeds(res)
	if res.CheckPairs {
		v.checkDiffPairs(res)
	}
	if res.Dens != nil {
		v.checkDensity(res)
	}
	if res.WirelenUm != nil {
		v.checkLengths(res)
	}
	return v
}

func (v *Result) checkTrees(res Parts) {
	for n, g := range res.Graphs {
		name := res.Ckt.Nets[n].Name
		if !g.IsTree() {
			v.addf(n, "tree", "net %s still has non-bridge edges", name)
		}
		if err := g.Validate(); err != nil {
			v.addf(n, "tree", "net %s: %v", name, err)
		}
		// Spanning: every terminal vertex touches an alive edge, and the
		// alive subgraph is connected with edges == vertices-1.
		touched := map[int]bool{}
		for _, e := range g.AliveEdges() {
			touched[g.Edges[e].U] = true
			touched[g.Edges[e].V] = true
		}
		for ti, tv := range g.TermVert {
			if !touched[tv] {
				v.addf(n, "tree", "net %s: terminal %d unconnected", name, ti)
			}
		}
		if len(touched) > 0 && g.AliveCount() != len(touched)-1 {
			v.addf(n, "tree", "net %s: %d edges over %d vertices (cycle or forest)",
				name, g.AliveCount(), len(touched))
		}
	}
}

func (v *Result) checkFeeds(res Parts) {
	owner := map[[2]int]string{}
	for n := range res.Ckt.Nets {
		name := res.Ckt.Nets[n].Name
		// Required rows: the channel extent of the terminals.
		minCh, maxCh := 1<<30, -1
		for _, t := range res.Ckt.Terminals(n) {
			for _, pos := range res.Ckt.PositionsOf(t) {
				if pos.Channel < minCh {
					minCh = pos.Channel
				}
				if pos.Channel > maxCh {
					maxCh = pos.Channel
				}
			}
		}
		rows := map[int]int{}
		for _, f := range res.Feeds[n] {
			rows[f.Row]++
			width := res.Ckt.Nets[n].Pitch
			for j := 0; j < width; j++ {
				col := f.Col + j
				if !isSlot(res, f.Row, col) {
					v.addf(n, "feed-slot", "net %s: feedthrough (%d,%d) is not a feed slot", name, f.Row, col)
				}
				key := [2]int{f.Row, col}
				if prev, taken := owner[key]; taken {
					v.addf(n, "feed-exclusive", "slot (%d,%d) used by %s and %s", f.Row, col, prev, name)
				}
				owner[key] = name
			}
		}
		for r := minCh; r < maxCh; r++ {
			switch rows[r] {
			case 1:
			case 0:
				v.addf(n, "feed-coverage", "net %s: no feedthrough in crossed row %d", name, r)
			default:
				v.addf(n, "feed-coverage", "net %s: %d feedthroughs in row %d", name, rows[r], r)
			}
		}
	}
}

func isSlot(res Parts, row, col int) bool {
	for _, s := range res.Geo.FeedSlots(row) {
		if s.Col == col {
			return true
		}
	}
	return false
}

func (v *Result) checkDiffPairs(res Parts) {
	for n := range res.Ckt.Nets {
		m := res.Ckt.Nets[n].DiffMate
		if m < 0 || m < n {
			continue
		}
		ga, gb := res.Graphs[n], res.Graphs[m]
		name := res.Ckt.Nets[n].Name + "/" + res.Ckt.Nets[m].Name
		if len(ga.Edges) != len(gb.Edges) {
			v.addf(n, "diff-parallel", "pair %s: graphs differ in size", name)
			continue
		}
		shift := 0
		shiftSet := false
		for e := range ga.Edges {
			ea, eb := &ga.Edges[e], &gb.Edges[e]
			if ea.Alive != eb.Alive {
				v.addf(n, "diff-parallel", "pair %s: edge %d alive mismatch", name, e)
				continue
			}
			if !ea.Alive {
				continue
			}
			if ea.Kind != eb.Kind || ea.Ch != eb.Ch {
				v.addf(n, "diff-parallel", "pair %s: edge %d kind/channel mismatch", name, e)
			}
			d := eb.X1 - ea.X1
			if !shiftSet {
				shift, shiftSet = d, true
			} else if d != shift {
				v.addf(n, "diff-parallel", "pair %s: edge %d shift %d != %d", name, e, d, shift)
			}
			if d2 := eb.X2 - ea.X2; d2 != d {
				v.addf(n, "diff-parallel", "pair %s: edge %d interval shift mismatch", name, e)
			}
		}
	}
}

func (v *Result) checkDensity(res Parts) {
	want := density.New(res.Ckt.Channels(), res.Ckt.Cols)
	for _, g := range res.Graphs {
		for _, e := range g.AliveEdges() {
			ed := &g.Edges[e]
			if ed.Kind != rgraph.ETrunk {
				continue
			}
			want.Add(ed.Ch, ed.X1, ed.X2, g.Pitch)
			if ed.Bridge {
				want.AddBridge(ed.Ch, ed.X1, ed.X2, g.Pitch)
			}
		}
	}
	for ch := 0; ch < res.Ckt.Channels(); ch++ {
		if got, w := res.Dens.Channel(ch), want.Channel(ch); got != w {
			v.addf(-1, "density", "channel %d: incremental %+v != recount %+v", ch, got, w)
		}
	}
}

func (v *Result) checkLengths(res Parts) {
	for n, g := range res.Graphs {
		var sum float64
		for _, e := range g.AliveEdges() {
			sum += g.Edges[e].Len
		}
		if diff := sum - res.WirelenUm[n]; diff > 1e-6 || diff < -1e-6 {
			v.addf(n, "length", "net %s: reported %v µm, tree sums to %v µm",
				res.Ckt.Nets[n].Name, res.WirelenUm[n], sum)
		}
	}
}
