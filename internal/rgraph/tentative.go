package rgraph

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// Tree is a tentative tree (§3.2): the union of the shortest paths from
// the driving terminal to every other terminal over the alive edges.
type Tree struct {
	// Edges lists the ids of the union, in no particular order.
	Edges []int
	// InTree flags membership per edge id.
	InTree []bool
	// Length is the total wire length of the union, µm.
	Length float64
}

// pqItem is one binary-heap entry of the Dijkstra priority queue.
type pqItem struct {
	v    int32
	dist float64
}

// pq is a hand-rolled binary min-heap over pqItem. container/heap would
// box every Push/Pop through an interface value, allocating on each edge
// relaxation of the hot d'(e) loop; this keeps the queue a flat slice.
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	s := *q
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].dist <= s[i].dist {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (q *pq) pop() pqItem {
	s := *q
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*q = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].dist < s[l].dist {
			m = r
		}
		if s[i].dist <= s[m].dist {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// dijkstraWS is the per-graph scratch space reused across every hot
// per-deletion computation: Dijkstra shortest paths, bridge recomputation,
// prune sweeps and Elmore walks. init sizes it when the graph is built,
// so the steady-state route loop never calls make. Vertex state is
// invalidated in O(1) by bumping a generation counter; entries are live
// only when their stamp matches the current generation. A Graph's methods
// share this workspace, so a Graph must not be used from two goroutines
// concurrently.
type dijkstraWS struct {
	dist  []float64
	prev  []int32 // edge id arriving at v on the shortest path, -1 for source
	stamp []uint32
	gen   uint32
	q     pq

	// isTerm flags terminal vertices; doneStamp marks terminals finalized
	// (popped) this generation. Dijkstra stops once every terminal is
	// finalized: distances and prev chains of shortest terminal paths are
	// final at that point, so the tail of the search changes nothing the
	// callers read.
	isTerm    []bool
	doneStamp []uint32

	edgeStamp []uint32 // tree-union membership stamps for lengthExcluding
	edgeGen   uint32

	// RecomputeBridges scratch (same single-goroutine-per-graph contract).
	disc, low []int32
	newBridge []bool
	frames    []bridgeFrame
	flipped   []int // RecomputeBridges result buffer, overwritten per call

	// Delete/Prune scratch. removed is the result buffer returned by
	// Delete (overwritten by the next Delete on this graph); pruneq is the
	// dangling-stub work list and connectedFromAlive's DFS stack.
	removed []int
	pruneq  []int32

	// Build scratch: the sorted spine-point list, the per-row
	// feedthrough-coverage marks, and the terminal/position buffers, all
	// reused across BuildInto rebuilds (ElmoreDelaysInto reads the
	// terminals into terms too). posOff[i]:posOff[i+1] delimits terminal
	// i's positions within posBuf.
	spines  []spinePt
	covered []bool
	terms   []circuit.PinRef
	posBuf  []circuit.Position
	posOff  []int32
	degBuf  []int32 // buildAdj per-vertex degree counts

	// Elmore-walk scratch (ElmoreDelays): CSR tree adjacency plus the
	// capacitance/delay arrays, all vertex- or edge-sized.
	elmStart  []int32
	elmEdges  []int32
	elmParent []int32
	elmOrder  []int32
	elmCapPin []float64
	elmCapSub []float64
	elmDelay  []float64
}

// bridgeFrame is one explicit-stack DFS frame of RecomputeBridges.
type bridgeFrame struct {
	v, parentEdge int32
	idx           int32
}

// init sizes every workspace array to the graph and records its terminal
// set. Build and Clone call it once; after that the per-deletion loop only
// reslices.
func (w *dijkstraWS) init(g *Graph) {
	nV, nE := len(g.Verts), len(g.Edges)
	if cap(w.dist) < nV {
		w.dist = make([]float64, nV)
		w.prev = make([]int32, nV)
		w.stamp = make([]uint32, nV)
		w.doneStamp = make([]uint32, nV)
		w.disc = make([]int32, nV)
		w.low = make([]int32, nV)
		w.gen = 0
		// Each vertex enters a prune queue or a DFS stack at most once.
		w.pruneq = make([]int32, 0, nV)
		w.frames = make([]bridgeFrame, 0, nV)
	}
	if cap(w.isTerm) < nV {
		w.isTerm = make([]bool, nV)
	}
	w.isTerm = w.isTerm[:nV]
	for i := range w.isTerm {
		w.isTerm[i] = false
	}
	for _, tv := range g.TermVert {
		w.isTerm[tv] = true
	}
	if cap(w.newBridge) < nE {
		w.newBridge = make([]bool, nE)
		w.removed = make([]int, 0, nE)
		w.flipped = make([]int, 0, nE)
	}
	if cap(w.edgeStamp) < nE {
		w.edgeStamp = make([]uint32, nE)
		w.edgeGen = 0
	}
}

// reset sizes the workspace to the graph and starts a fresh generation.
func (w *dijkstraWS) reset(nVerts int) {
	if len(w.dist) < nVerts {
		w.dist = make([]float64, nVerts)
		w.prev = make([]int32, nVerts)
		w.stamp = make([]uint32, nVerts)
		w.doneStamp = make([]uint32, nVerts)
		w.gen = 0
	}
	w.gen++
	if w.gen == 0 { // stamp wrap: re-zero so stale stamps cannot match
		for i := range w.stamp {
			w.stamp[i] = 0
			w.doneStamp[i] = 0
		}
		w.gen = 1
	}
	w.q = w.q[:0]
}

// distAt reads v's tentative distance, +Inf when untouched this run.
func (w *dijkstraWS) distAt(v int32) float64 {
	if w.stamp[v] == w.gen {
		return w.dist[v]
	}
	return math.Inf(1)
}

func (w *dijkstraWS) set(v int32, d float64, prevEdge int32) {
	w.dist[v] = d
	w.prev[v] = prevEdge
	w.stamp[v] = w.gen
}

// prevAt reads v's arrival edge, -1 when v was never reached.
func (w *dijkstraWS) prevAt(v int32) int32 {
	if w.stamp[v] == w.gen {
		return w.prev[v]
	}
	return -1
}

// markEdges starts a fresh edge-union generation sized to the graph.
func (w *dijkstraWS) markEdges(nEdges int) {
	if len(w.edgeStamp) < nEdges {
		w.edgeStamp = make([]uint32, nEdges)
		w.edgeGen = 0
	}
	w.edgeGen++
	if w.edgeGen == 0 {
		for i := range w.edgeStamp {
			w.edgeStamp[i] = 0
		}
		w.edgeGen = 1
	}
}

func (w *dijkstraWS) edgeMarked(e int32) bool { return w.edgeStamp[e] == w.edgeGen }
func (w *dijkstraWS) markEdge(e int32)        { w.edgeStamp[e] = w.edgeGen }

// Tentative computes the tentative tree with Dijkstra's shortest-path
// algorithm from the driving terminal (paper §3.2). The returned tree is
// freshly allocated.
func (g *Graph) Tentative() (*Tree, error) {
	return g.tentativeCostInto(nil, nil)
}

// TentativeInto is Tentative reusing a previous tree's storage (prev may
// be nil). The returned tree aliases prev's slices when they fit, so prev
// must not be read afterwards — the router's per-deletion tree refresh
// would otherwise allocate two slices per deletion.
func (g *Graph) TentativeInto(prev *Tree) (*Tree, error) {
	return g.tentativeCostInto(nil, prev)
}

// TentativeWeighted computes a tentative tree under a custom edge cost
// (e.g. congestion-inflated lengths for a sequential baseline router).
// Tree.Length still reports physical length.
func (g *Graph) TentativeWeighted(cost func(e int) float64) (*Tree, error) {
	return g.tentativeCostInto(cost, nil)
}

// KeepOnly kills every alive edge outside the tree, leaving exactly the
// tree in the graph, and updates the bookkeeping.
func (g *Graph) KeepOnly(t *Tree) {
	for e := range g.Edges {
		if g.Edges[e].Alive && !t.InTree[e] {
			g.Edges[e].Alive = false
			g.alive--
		}
	}
}

// LengthExcluding returns the tentative-tree length that would result from
// deleting edge skip: the d'-generating estimate behind LM(e,P). It fails
// if the exclusion disconnects some terminal (skip was a bridge). Unlike
// Tentative it allocates nothing: the whole computation runs inside the
// graph's reusable workspace.
func (g *Graph) LengthExcluding(skip int) (float64, error) {
	g.runDijkstra(skip, nil)
	w := &g.ws
	w.markEdges(len(g.Edges))
	var length float64
	for ti, tv := range g.TermVert {
		v := int32(tv)
		if math.IsInf(w.distAt(v), 1) {
			return 0, fmt.Errorf("rgraph: terminal %d unreachable from driver", ti)
		}
		for w.prevAt(v) != -1 {
			e := w.prevAt(v)
			if w.edgeMarked(e) {
				break // the rest of the path is already in the union
			}
			w.markEdge(e)
			length += g.Edges[e].Len
			v = g.other32(e, v)
		}
	}
	return length, nil
}

// runDijkstra fills the workspace with shortest paths from the driving
// terminal over the alive edges (minus skip), under the given edge cost
// (nil means physical length). The search stops as soon as every terminal
// is finalized: with non-negative costs, a finalized vertex's distance and
// arrival edge can never change, and every vertex on a shortest terminal
// path has distance ≤ the terminal's, so the prev chains the callers walk
// are already final — the skipped tail of the search only settles vertices
// no terminal path runs through.
func (g *Graph) runDijkstra(skip int, cost func(e int) float64) {
	w := &g.ws
	w.reset(len(g.Verts))
	src := int32(g.TermVert[0])
	w.set(src, 0, -1)
	w.q.push(pqItem{v: src, dist: 0})
	remaining := len(g.TermVert)
	for len(w.q) > 0 && remaining > 0 {
		it := w.q.pop()
		if it.dist > w.distAt(it.v) {
			continue
		}
		if w.isTerm[it.v] && w.doneStamp[it.v] != w.gen {
			w.doneStamp[it.v] = w.gen
			remaining--
		}
		for _, e := range g.adj[it.v] {
			if !g.Edges[e].Alive || int(e) == skip {
				continue
			}
			c := g.Edges[e].Len
			if cost != nil {
				c = cost(int(e))
			}
			v := g.other32(e, it.v)
			if d := it.dist + c; d < w.distAt(v) {
				w.set(v, d, e)
				w.q.push(pqItem{v: v, dist: d})
			}
		}
	}
}

// tentativeCostInto computes the tentative tree over every alive edge
// under the given edge cost (nil means physical length), refilling prev's
// storage when prev is non-nil.
func (g *Graph) tentativeCostInto(cost func(e int) float64, prev *Tree) (*Tree, error) {
	g.runDijkstra(-1, cost)
	w := &g.ws
	t := prev
	if t == nil {
		t = new(Tree)
	}
	if cap(t.InTree) >= len(g.Edges) {
		t.InTree = t.InTree[:len(g.Edges)]
		for i := range t.InTree {
			t.InTree[i] = false
		}
	} else {
		t.InTree = make([]bool, len(g.Edges))
	}
	if cap(t.Edges) < len(g.Edges) {
		t.Edges = make([]int, 0, len(g.Edges))
	}
	t.Edges = t.Edges[:0]
	t.Length = 0
	for ti, tv := range g.TermVert {
		v := int32(tv)
		if math.IsInf(w.distAt(v), 1) {
			return nil, fmt.Errorf("rgraph: terminal %d unreachable from driver", ti)
		}
		for w.prevAt(v) != -1 {
			e := w.prevAt(v)
			if t.InTree[e] {
				break // the rest of the path is already in the union
			}
			t.InTree[e] = true
			t.Edges = append(t.Edges, int(e))
			t.Length += g.Edges[e].Len
			v = g.other32(e, v)
		}
	}
	return t, nil
}

// FinalTree returns the alive graph as a Tree once routing has finished
// (IsTree). Unlike Tentative it includes every alive edge; for a finished
// net the two coincide up to pruned stubs. The tree is freshly allocated.
func (g *Graph) FinalTree() *Tree {
	t := &Tree{InTree: make([]bool, len(g.Edges))}
	for i := range g.Edges {
		if g.Edges[i].Alive {
			t.InTree[i] = true
			t.Edges = append(t.Edges, i)
			t.Length += g.Edges[i].Len
		}
	}
	return t
}

// SkewPs returns the spread (max - min) of the per-sink Elmore wire
// delays over a tree: the clock-skew measure that motivates the paper's
// multi-pitch wires (§4.2, wider wire → lower resistance → lower skew).
func (g *Graph) SkewPs(t *Tree, ckt *circuit.Circuit, rPerUm float64) float64 {
	d := g.ElmoreDelays(t, ckt, rPerUm)
	if len(d) < 2 {
		return 0
	}
	minD, maxD := math.Inf(1), math.Inf(-1)
	for _, x := range d[1:] {
		if x < minD {
			minD = x
		}
		if x > maxD {
			maxD = x
		}
	}
	return maxD - minD
}

// ElmoreDelays computes the per-sink Elmore wire delays (ps) over a tree,
// for the paper's RC-extension option. rPerUm is the wire resistance in
// kΩ/µm (so kΩ × fF = ps); capacitance comes from the net's pitch width
// and the terminals' fan-in loads. The returned slice is indexed like the
// net's terminals; entry 0 (the driver) is zero.
func (g *Graph) ElmoreDelays(t *Tree, ckt *circuit.Circuit, rPerUm float64) []float64 {
	return g.ElmoreDelaysInto(nil, t, ckt, rPerUm)
}

// ElmoreDelaysInto is ElmoreDelays writing into dst (grown when needed):
// everything but the result lives in the graph's workspace, so the
// router's per-refresh delay derivation does not allocate.
func (g *Graph) ElmoreDelaysInto(dst []float64, t *Tree, ckt *circuit.Circuit, rPerUm float64) []float64 {
	capPerUm := ckt.Tech.WireCapPerUm(g.Pitch)
	w := &g.ws
	terms := ckt.AppendTerminals(w.terms[:0], g.Net)
	w.terms = terms
	nV := len(g.Verts)

	// CSR adjacency restricted to tree edges: count, prefix-sum, fill.
	if cap(w.elmStart) < nV+1 {
		w.elmStart = make([]int32, nV+1)
		w.elmParent = make([]int32, nV)
		w.elmOrder = make([]int32, 0, nV)
		w.elmCapPin = make([]float64, nV)
		w.elmCapSub = make([]float64, nV)
		w.elmDelay = make([]float64, nV)
	}
	start := w.elmStart[:nV+1]
	for i := range start {
		start[i] = 0
	}
	for _, e := range t.Edges {
		start[g.Edges[e].U+1]++
		start[g.Edges[e].V+1]++
	}
	for v := 0; v < nV; v++ {
		start[v+1] += start[v]
	}
	if cap(w.elmEdges) < 2*len(g.Edges) {
		w.elmEdges = make([]int32, 2*len(g.Edges))
	}
	edges := w.elmEdges[:2*len(t.Edges)]
	fill := w.elmParent[:nV] // borrow as the running CSR cursor
	for v := 0; v < nV; v++ {
		fill[v] = 0
	}
	for _, e := range t.Edges {
		u, v := g.Edges[e].U, g.Edges[e].V
		edges[start[u]+fill[u]] = int32(e)
		fill[u]++
		edges[start[v]+fill[v]] = int32(e)
		fill[v]++
	}

	// Pin loads at terminal vertices.
	pinCap := w.elmCapPin[:nV]
	for i := range pinCap {
		pinCap[i] = 0
	}
	for ti, tv := range g.TermVert {
		if ti > 0 {
			pinCap[tv] = ckt.FinOf(terms[ti])
		}
	}
	root := int32(g.TermVert[0])

	// Post-order subtree capacitances over the tree DFS order.
	subCap := w.elmCapSub[:nV]
	parentEdge := w.elmParent[:nV]
	for v := range parentEdge {
		parentEdge[v] = -1
		subCap[v] = 0
	}
	order := w.elmOrder[:0]
	w.reset(nV) // borrow the stamp array as the visited set
	w.stamp[root] = w.gen
	order = append(order, root)
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, e := range edges[start[v]:start[v+1]] {
			u := g.other32(e, v)
			if w.stamp[u] != w.gen {
				w.stamp[u] = w.gen
				parentEdge[u] = e
				order = append(order, u)
			}
		}
	}
	w.elmOrder = order
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		subCap[v] += pinCap[v]
		if pe := parentEdge[v]; pe != -1 {
			wireCap := g.Edges[pe].Len * capPerUm
			up := g.other32(pe, v)
			subCap[up] += subCap[v] + wireCap
		}
	}
	// Pre-order delay accumulation: delay at child = delay at parent +
	// R(edge)·(C(edge)/2 + C(subtree below edge)).
	delay := w.elmDelay[:nV]
	delay[root] = 0
	for _, v := range order {
		if pe := parentEdge[v]; pe != -1 {
			up := g.other32(pe, v)
			r := rPerUm * g.Edges[pe].Len
			c := g.Edges[pe].Len*capPerUm/2 + subCap[v]
			delay[v] = delay[up] + r*c
		}
	}
	if cap(dst) >= len(g.TermVert) {
		dst = dst[:len(g.TermVert)]
	} else {
		dst = make([]float64, len(g.TermVert))
	}
	for ti, tv := range g.TermVert {
		dst[ti] = delay[tv]
	}
	dst[0] = 0
	return dst
}
