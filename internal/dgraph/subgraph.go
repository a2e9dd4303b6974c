// Compact per-constraint subgraphs and the dirty-set incremental API.
//
// Every constraint P owns an induced subgraph of G_D: the vertices
// reachable from S_P that also reach T_P, stored as a dense vertex list in
// topological order with all arcs between them remapped to local indices.
// A vertex is in Gd(P) exactly when inS && toT, and an arc is in Gd(P)
// exactly when both endpoints are (inS[from] implies inS[to] and toT[to]
// implies toT[from] along an arc), so the subgraph is induced and the
// longest-path recurrences need no global state at all: analyzeOne walks
// |Gd(P)| vertices and arcs instead of clearing and scanning the whole
// graph per constraint.
//
// On top of the compact layout sits a dirty set: delay setters (or an
// explicit MarkNet) record which constraints are affected, and Flush
// re-analyzes exactly those, in ascending constraint order.
package dgraph

import "sort"

// subArc is one arc of a compact constraint subgraph, with its endpoints
// remapped to local (dense, topo-ordered) vertex indices.
type subArc struct {
	from, to int32 // local vertex indices
	global   int32 // index into Graph.Arcs (ArcDelay lookup)
	net      int32 // Arc.Net copied next to the endpoints, NoNet for cell arcs
}

// subgraph is the compact induced form of one constraint's Gd(P).
type subgraph struct {
	// verts maps local index → global vertex id, in topological order.
	verts []int32
	// arcs holds every arc of Gd(P), grouped by tail in local topo order;
	// within one tail the global adjacency order is preserved.
	arcs []subArc
	// outStart is the CSR index into arcs: the out-arcs of local vertex v
	// are arcs[outStart[v]:outStart[v+1]].
	outStart []int32
	// inStart/inArcs are the in-adjacency CSR (local arc ids per head).
	// Each head's list is sorted by ascending global arc id so
	// CriticalPath keeps the global in-list tie-break.
	inStart []int32
	inArcs  []int32
	// srcs/sinks are the local ids of the S_P/T_P members present in
	// Gd(P), in constraint declaration order (CriticalPath's end-sink
	// tie-break follows it).
	srcs, sinks []int32
	// nets lists the nets with at least one arc in the subgraph,
	// ascending; net nets[i]'s local arc ids are
	// netArcIdx[netStart[i]:netStart[i+1]], in fan-out order.
	nets     []int32
	netStart []int32
	//bgr:owned -- netArcsLocal lends subslice views of it
	netArcIdx []int32
}

// netArcsLocal returns the local arc ids of a net inside the subgraph, in
// fan-out order, or nil when the net has no arc in Gd(P).
func (sg *subgraph) netArcsLocal(net int32) []int32 {
	lo, hi := 0, len(sg.nets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sg.nets[mid] < net {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(sg.nets) || sg.nets[lo] != net {
		return nil
	}
	//bgr:allow scratch-escape -- documented loan: a read-only CSR view; netArcIdx is append-only after New, so the backing array never moves under a reader
	return sg.netArcIdx[sg.netStart[lo]:sg.netStart[lo+1]]
}

// ArcsInGd returns the number of net arcs of the given net inside Gd(P).
// The count is precomputed at graph build time (the LM scoring loop reads
// it once per candidate and constraint).
func (g *Graph) ArcsInGd(p, net int) int {
	return len(g.subs[p].netArcsLocal(int32(net)))
}

// buildSubgraphs derives every constraint's compact subgraph from the
// reachability masks. The two scratch arrays are shared across
// constraints and restored to all -1 after each build.
func (g *Graph) buildSubgraphs() {
	g.subs = make([]subgraph, len(g.Ckt.Cons))
	localOf := make([]int32, len(g.Verts)) // global vertex → local, -1 outside
	arcLocal := make([]int32, len(g.Arcs)) // global arc → local, -1 outside
	for i := range localOf {
		localOf[i] = -1
	}
	for i := range arcLocal {
		arcLocal[i] = -1
	}
	for p := range g.subs {
		g.buildSubgraph(p, localOf, arcLocal)
	}
}

func (g *Graph) buildSubgraph(p int, localOf, arcLocal []int32) {
	sg := &g.subs[p]
	m := &g.cons[p]
	for _, v := range g.topo {
		if m.inS[v] && m.toT[v] {
			localOf[v] = int32(len(sg.verts))
			sg.verts = append(sg.verts, int32(v))
		}
	}
	nV := len(sg.verts)

	sg.outStart = make([]int32, nV+1)
	for lv := 0; lv < nV; lv++ {
		for _, a := range g.out[sg.verts[lv]] {
			if to := localOf[g.Arcs[a].To]; to >= 0 {
				arcLocal[a] = int32(len(sg.arcs))
				sg.arcs = append(sg.arcs, subArc{
					from:   int32(lv),
					to:     to,
					global: int32(a),
					net:    int32(g.Arcs[a].Net),
				})
			}
		}
		sg.outStart[lv+1] = int32(len(sg.arcs))
	}

	// In-adjacency CSR. Fill by counting, then sort each head's bucket by
	// global arc id to match the order Graph.in would have presented.
	sg.inStart = make([]int32, nV+1)
	for i := range sg.arcs {
		sg.inStart[sg.arcs[i].to+1]++
	}
	for v := 0; v < nV; v++ {
		sg.inStart[v+1] += sg.inStart[v]
	}
	sg.inArcs = make([]int32, len(sg.arcs))
	cur := make([]int32, nV)
	for la := range sg.arcs {
		h := sg.arcs[la].to
		sg.inArcs[sg.inStart[h]+cur[h]] = int32(la)
		cur[h]++
	}
	for v := 0; v < nV; v++ {
		seg := sg.inArcs[sg.inStart[v]:sg.inStart[v+1]]
		sort.Slice(seg, func(i, j int) bool { return sg.arcs[seg[i]].global < sg.arcs[seg[j]].global })
	}

	for _, v := range m.srcs {
		if localOf[v] >= 0 {
			sg.srcs = append(sg.srcs, localOf[v])
		}
	}
	for _, v := range m.sinks {
		if localOf[v] >= 0 {
			sg.sinks = append(sg.sinks, localOf[v])
		}
	}

	// Per-net arc groups, nets ascending, arcs in fan-out order.
	for n := range g.netArcs {
		first := true
		for _, a := range g.netArcs[n] {
			if arcLocal[a] < 0 {
				continue
			}
			if first {
				sg.nets = append(sg.nets, int32(n))
				sg.netStart = append(sg.netStart, int32(len(sg.netArcIdx)))
				first = false
			}
			sg.netArcIdx = append(sg.netArcIdx, arcLocal[a])
		}
	}
	sg.netStart = append(sg.netStart, int32(len(sg.netArcIdx)))

	for _, gv := range sg.verts {
		localOf[gv] = -1
	}
	for i := range sg.arcs {
		arcLocal[sg.arcs[i].global] = -1
	}
}

// analyzeOne recomputes constraint p's longest paths, worst delay and
// margin from the current arc delays, touching only the constraint's
// compact subgraph. Writes land solely in t.Cons[p].
func (t *Timing) analyzeOne(p int) {
	g := t.G
	ct := &t.Cons[p]
	sg := &g.subs[p]
	nV := len(sg.verts)
	for v := 0; v < nV; v++ {
		ct.LpF[v] = negInf
		ct.LpR[v] = negInf
	}
	for _, s := range sg.srcs {
		ct.LpF[s] = 0
	}
	for v := 0; v < nV; v++ {
		f := ct.LpF[v]
		if unreached(f) {
			continue
		}
		for ai := sg.outStart[v]; ai < sg.outStart[v+1]; ai++ {
			a := &sg.arcs[ai]
			if d := f + t.ArcDelay[a.global]; d > ct.LpF[a.to] {
				ct.LpF[a.to] = d
			}
		}
	}
	for _, s := range sg.sinks {
		ct.LpR[s] = 0
	}
	for v := nV - 1; v >= 0; v-- {
		best := ct.LpR[v]
		for ai := sg.outStart[v]; ai < sg.outStart[v+1]; ai++ {
			a := &sg.arcs[ai]
			r := ct.LpR[a.to]
			if unreached(r) {
				continue
			}
			if d := r + t.ArcDelay[a.global]; d > best {
				best = d
			}
		}
		ct.LpR[v] = best
	}
	ct.Worst = negInf
	for _, s := range sg.sinks {
		if ct.LpF[s] > ct.Worst {
			ct.Worst = ct.LpF[s]
		}
	}
	if unreached(ct.Worst) {
		// No source reaches any sink: constraint is trivially met.
		ct.Worst = 0
	}
	ct.Margin = g.Ckt.Cons[p].Limit - ct.Worst
}

// MarkNet records that a net's arc delays changed: every constraint whose
// Gd(P) contains an arc of the net becomes dirty for the next Flush. The
// delay setters (SetLumped, SetNetLumped, SetNetArcDelays) call it
// automatically, so callers that mutate delays through them only need to
// Flush.
func (t *Timing) MarkNet(net int) {
	for _, p := range t.G.consOfNet[net] {
		if !t.dirty[p] {
			t.dirty[p] = true
			t.dirtyCount++
		}
	}
}

// MarkAll marks every constraint dirty, forcing the next Flush to
// re-analyze the full constraint set.
func (t *Timing) MarkAll() {
	for p := range t.dirty {
		t.dirty[p] = true
	}
	t.dirtyCount = len(t.dirty)
}

// Flush re-analyzes exactly the constraints marked dirty since the last
// Flush and returns their indices in ascending order (the slice is reused
// by the next Flush).
func (t *Timing) Flush() []int {
	if t.dirtyCount == 0 {
		return nil
	}
	ps := t.flushBuf[:0]
	for p := range t.dirty {
		if t.dirty[p] {
			t.dirty[p] = false
			ps = append(ps, p)
			t.analyzeOne(p)
		}
	}
	t.dirtyCount = 0
	t.flushBuf = ps
	//bgr:allow scratch-escape -- documented loan: Flush's result aliases flushBuf until the next Flush; every caller copies or finishes with it first
	return ps
}

// ReferenceWorst recomputes constraint p's critical-path delay the
// pre-subgraph way: a forward longest-path walk over the full global
// topological order with a graph-sized scratch array, masked by Gd(P)
// membership. It is retained as the independent oracle for the
// randomized equivalence tests and as the BenchmarkTimingFlush baseline;
// the compact analysis relaxes exactly the same arcs with the same
// delays, so the two agree bit for bit.
func (t *Timing) ReferenceWorst(p int) float64 {
	g := t.G
	if t.refF == nil {
		t.refF = make([]float64, len(g.Verts))
	}
	lp := t.refF
	m := &g.cons[p]
	inGd := func(v int) bool { return m.inS[v] && m.toT[v] }
	for v := range lp {
		lp[v] = negInf
	}
	for _, v := range m.srcs {
		if inGd(v) {
			lp[v] = 0
		}
	}
	for _, v := range g.topo {
		if unreached(lp[v]) {
			continue
		}
		for _, a := range g.out[v] {
			w := g.Arcs[a].To
			if !inGd(w) {
				continue
			}
			if d := lp[v] + t.ArcDelay[a]; d > lp[w] {
				lp[w] = d
			}
		}
	}
	worst := negInf
	for _, v := range m.sinks {
		if lp[v] > worst {
			worst = lp[v]
		}
	}
	if unreached(worst) {
		worst = 0
	}
	return worst
}
