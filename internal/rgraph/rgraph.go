// Package rgraph builds and manipulates the per-net routing graphs Gr(n)
// of Harada & Kitazawa §3.1 (Fig. 3).
//
// Vertices are the net's circuit terminals, their candidate physical
// positions, and channel spine points (feedthrough endpoints and wire
// branching points). Edges are zero-weight correspondence edges (terminal →
// position), branch edges (position → spine jog), trunk edges (horizontal
// channel runs), and feedthrough edges (vertical runs through a cell row).
//
// The interconnection wiring of the net is found by deleting non-bridge
// edges until the graph is a tree; bridges (edges whose deletion would
// disconnect the graph) are never deleted, and dangling non-terminal stubs
// exposed by a deletion are pruned automatically.
//
// Equivalent positions of one terminal are modeled as internally shorted
// (zero-weight correspondence edges through the terminal vertex), matching
// the physical reality of multi-tap ECL outputs: the final tree may connect
// through a terminal using two of its positions.
package rgraph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/circuit"
	"repro/internal/grid"
)

// VKind classifies vertices.
type VKind int

const (
	// VTerm is a circuit terminal (cell pin or external terminal).
	VTerm VKind = iota
	// VPos is a candidate physical position of a terminal.
	VPos
	// VSpine is a point on a channel spine: a trunk junction, feedthrough
	// endpoint, or wire branching point.
	VSpine
)

// EKind classifies edges.
type EKind int

const (
	// ECorr is a zero-weight correspondence edge between a terminal and
	// one of its candidate positions.
	ECorr EKind = iota
	// EBranch is the jog from a pin position to the channel spine.
	EBranch
	// ETrunk is a horizontal run along a channel.
	ETrunk
	// EFeed is a vertical feedthrough run through a cell row.
	EFeed
)

func (k EKind) String() string {
	switch k {
	case ECorr:
		return "corr"
	case EBranch:
		return "branch"
	case ETrunk:
		return "trunk"
	case EFeed:
		return "feed"
	}
	return "?"
}

// Vertex is one routing-graph vertex.
type Vertex struct {
	Kind VKind
	Term int // terminal index within the net (driver first) for VTerm/VPos
	Ch   int // channel for VPos/VSpine (for VTerm: channel of its positions)
	Col  int // column for VPos/VSpine
}

// Edge is one routing-graph edge.
type Edge struct {
	U, V   int
	Kind   EKind
	Ch     int // channel of trunk/branch/corr edges; row of feed edges
	X1, X2 int // column interval (X1 <= X2); equal for vertical edges
	Len    float64
	Alive  bool
	Bridge bool
}

// FeedPos is an assigned feedthrough: the net crosses cell row Row at
// column Col.
type FeedPos struct {
	Row, Col int
}

// Graph is the routing graph of one net.
type Graph struct {
	Net   int
	Pitch int

	Verts []Vertex
	Edges []Edge
	adj   [][]int32 // edge ids per vertex (dead edges included; filter on Alive)
	// adjBack is the shared backing array the adj rows are views into,
	// filled by buildAdj once per (re)build.
	adjBack []int32

	// TermVert[i] is the vertex of terminal i (driver first, as returned
	// by circuit.Terminals).
	TermVert []int

	alive int // count of alive edges

	// ws is the reusable shortest-path/bridge/prune workspace, sized once
	// at Build. It makes the per-deletion loop allocation-free but also
	// makes a Graph unsafe for concurrent use; callers must shard work per
	// graph.
	ws dijkstraWS
}

// Build constructs Gr(n) for a net given its assigned feedthroughs. The
// feedthrough list must cover every row between the lowest and highest
// channel the net's terminals touch.
func Build(ckt *circuit.Circuit, geo *grid.Geometry, net int, feeds []FeedPos) (*Graph, error) {
	return BuildInto(nil, ckt, geo, net, feeds)
}

// BuildInto is Build reusing a recycled Graph's storage (vertex, edge,
// adjacency and workspace arrays) when recycled is non-nil. The reroute
// search builds and discards candidate graphs in a loop; recycling them
// keeps that path off the allocator. recycled must not be in use anywhere
// else — its previous contents are destroyed.
func BuildInto(recycled *Graph, ckt *circuit.Circuit, geo *grid.Geometry, net int, feeds []FeedPos) (*Graph, error) {
	g := recycled
	if g == nil {
		g = &Graph{}
	}
	terms := ckt.AppendTerminals(g.ws.terms[:0], net)
	g.ws.terms = terms
	if len(terms) < 2 {
		return nil, fmt.Errorf("rgraph: net %q has %d terminals", ckt.Nets[net].Name, len(terms))
	}
	g.Net, g.Pitch = net, ckt.Nets[net].Pitch
	g.Verts = g.Verts[:0]
	g.Edges = g.Edges[:0]
	g.TermVert = g.TermVert[:0]
	g.adj = g.adj[:0]
	g.alive = 0

	// Collect the per-terminal positions once, then the spine points per
	// channel — every terminal position column and both endpoints of every
	// feedthrough — as a sorted, deduplicated (channel, column) list.
	// Spine vertices are created in that order, so later lookups are
	// binary searches instead of map probes (Build runs once per net at
	// setup and again on every reroute rebuild).
	posBuf, posOff := g.ws.posBuf[:0], g.ws.posOff[:0]
	for _, t := range terms {
		posOff = append(posOff, int32(len(posBuf)))
		posBuf = ckt.AppendPositionsOf(posBuf, t)
	}
	posOff = append(posOff, int32(len(posBuf)))
	g.ws.posBuf, g.ws.posOff = posBuf, posOff
	spines := g.ws.spines[:0]
	minCh, maxCh := math.MaxInt32, -1
	for _, pos := range posBuf {
		spines = append(spines, spinePt{pos.Channel, pos.Col})
		if pos.Channel < minCh {
			minCh = pos.Channel
		}
		if pos.Channel > maxCh {
			maxCh = pos.Channel
		}
	}
	covered := g.ws.covered
	if cap(covered) < ckt.Rows {
		covered = make([]bool, ckt.Rows)
	}
	covered = covered[:ckt.Rows]
	for i := range covered {
		covered[i] = false
	}
	g.ws.covered = covered
	for _, f := range feeds {
		if f.Row < 0 || f.Row >= ckt.Rows {
			g.ws.spines = spines
			return nil, fmt.Errorf("rgraph: net %q feedthrough row %d out of range", ckt.Nets[net].Name, f.Row)
		}
		spines = append(spines, spinePt{f.Row, f.Col}, spinePt{f.Row + 1, f.Col})
		covered[f.Row] = true
	}
	g.ws.spines = spines
	for r := minCh; r < maxCh; r++ {
		if !covered[r] {
			return nil, fmt.Errorf("rgraph: net %q crosses row %d but has no feedthrough there", ckt.Nets[net].Name, r)
		}
	}
	slices.SortFunc(spines, compareSpines)
	spines = dedupSpines(spines)
	g.ws.spines = spines
	// Reserve the vertex, edge and adjacency arrays in one shot so a fresh
	// build does not regrow them append by append.
	needV := len(spines) + len(terms) + len(posBuf)
	needE := len(spines) + len(feeds) + 2*len(posBuf)
	if cap(g.Verts) < needV {
		g.Verts = make([]Vertex, 0, needV)
	}
	if cap(g.Edges) < needE {
		g.Edges = make([]Edge, 0, needE)
	}
	if cap(g.TermVert) < len(terms) {
		g.TermVert = make([]int, 0, len(terms))
	}
	// spineVert answers (channel, col) → vertex; spine vertex ids are
	// allocated first and in spines order.
	spineVert := func(ch, col int) int {
		i, _ := slices.BinarySearchFunc(spines, spinePt{ch, col}, compareSpines)
		return i
	}

	// Spine vertices and trunk edges.
	for i, sp := range spines {
		v := g.addVertex(Vertex{Kind: VSpine, Term: -1, Ch: sp.ch, Col: sp.col})
		if i > 0 && spines[i-1].ch == sp.ch {
			prev := spines[i-1].col
			g.addEdge(Edge{
				U: v - 1, V: v, Kind: ETrunk, Ch: sp.ch,
				X1: prev, X2: sp.col, Len: geo.SpanUm(prev, sp.col),
			})
		}
	}
	// Feedthrough edges.
	for _, f := range feeds {
		u := spineVert(f.Row, f.Col)
		v := spineVert(f.Row+1, f.Col)
		g.addEdge(Edge{
			U: u, V: v, Kind: EFeed, Ch: f.Row,
			X1: f.Col, X2: f.Col, Len: ckt.Tech.RowHeight,
		})
	}
	// Terminal, position vertices; correspondence and branch edges.
	for ti := range terms {
		positions := posBuf[posOff[ti]:posOff[ti+1]]
		tv := g.addVertex(Vertex{Kind: VTerm, Term: ti, Ch: positions[0].Channel, Col: positions[0].Col})
		g.TermVert = append(g.TermVert, tv)
		for _, pos := range positions {
			pv := g.addVertex(Vertex{Kind: VPos, Term: ti, Ch: pos.Channel, Col: pos.Col})
			g.addEdge(Edge{U: tv, V: pv, Kind: ECorr, Ch: pos.Channel, X1: pos.Col, X2: pos.Col, Len: 0})
			sv := spineVert(pos.Channel, pos.Col)
			g.addEdge(Edge{U: pv, V: sv, Kind: EBranch, Ch: pos.Channel, X1: pos.Col, X2: pos.Col, Len: ckt.Tech.BranchLen})
		}
	}
	g.buildAdj()
	g.ws.init(g)
	if !g.connectedFromAlive() {
		return nil, fmt.Errorf("rgraph: net %q routing graph is disconnected", ckt.Nets[net].Name)
	}
	g.RecomputeBridges()
	g.ws.removed = g.Prune(g.ws.removed[:0])
	return g, nil
}

// spinePt is a (channel, column) spine location used during Build.
type spinePt struct {
	ch, col int
}

// compareSpines orders spine points by channel, then column.
func compareSpines(a, b spinePt) int {
	if c := cmp.Compare(a.ch, b.ch); c != 0 {
		return c
	}
	return cmp.Compare(a.col, b.col)
}

// dedupSpines removes adjacent duplicates from a sorted spine list.
func dedupSpines(s []spinePt) []spinePt {
	out := s[:0]
	for i, p := range s {
		if i == 0 || p != s[i-1] {
			out = append(out, p)
		}
	}
	return out
}

func (g *Graph) addVertex(v Vertex) int {
	g.Verts = append(g.Verts, v)
	return len(g.Verts) - 1
}

func (g *Graph) addEdge(e Edge) int {
	if e.X2 < e.X1 {
		e.X1, e.X2 = e.X2, e.X1
	}
	e.Alive = true
	id := len(g.Edges)
	g.Edges = append(g.Edges, e)
	g.alive++
	return id
}

// buildAdj fills the per-vertex incidence lists as views into one shared
// backing array, in edge-id order per vertex — the same order incremental
// appends during construction would produce, with two allocations instead
// of one per vertex.
func (g *Graph) buildAdj() {
	nv := len(g.Verts)
	if cap(g.adj) < nv {
		g.adj = make([][]int32, 0, nv)
	}
	g.adj = g.adj[:nv]
	deg := g.ws.degBuf
	if cap(deg) < nv {
		deg = make([]int32, nv)
	}
	deg = deg[:nv]
	for v := range deg {
		deg[v] = 0
	}
	g.ws.degBuf = deg
	for e := range g.Edges {
		deg[g.Edges[e].U]++
		deg[g.Edges[e].V]++
	}
	need := 2 * len(g.Edges)
	if cap(g.adjBack) < need {
		g.adjBack = make([]int32, need)
	}
	back := g.adjBack[:0]
	off := 0
	for v := 0; v < nv; v++ {
		g.adj[v] = back[off : off : off+int(deg[v])]
		off += int(deg[v])
	}
	for e := range g.Edges {
		g.adj[g.Edges[e].U] = append(g.adj[g.Edges[e].U], int32(e))
		g.adj[g.Edges[e].V] = append(g.adj[g.Edges[e].V], int32(e))
	}
}

// DropScratch releases the scratch workspace of a graph whose routing has
// finished, keeping its terminal marks: the graph stays fully usable, and
// a method that needs scratch again sizes it on first use. A route's
// result holds its graphs for as long as the caller does, and the
// workspace would otherwise stay with them.
func (g *Graph) DropScratch() { g.ws = dijkstraWS{isTerm: g.ws.isTerm} }

// Clone deep-copies the graph (used by ECO re-optimization so the new
// routing can diverge without touching the old result). The clone gets a
// fresh shortest-path workspace: sharing one would race.
func (g *Graph) Clone() *Graph {
	ng := &Graph{Net: g.Net, Pitch: g.Pitch, alive: g.alive}
	ng.Verts = append([]Vertex(nil), g.Verts...)
	ng.Edges = append([]Edge(nil), g.Edges...)
	ng.TermVert = append([]int(nil), g.TermVert...)
	ng.adj = make([][]int32, len(g.adj))
	for v := range g.adj {
		ng.adj[v] = append([]int32(nil), g.adj[v]...)
	}
	ng.ws.init(ng)
	return ng
}

// AliveEdges returns the ids of all alive edges.
func (g *Graph) AliveEdges() []int {
	out := make([]int, 0, g.alive)
	for i := range g.Edges {
		if g.Edges[i].Alive {
			out = append(out, i)
		}
	}
	return out
}

// NonBridges returns the ids of alive non-bridge edges: the deletion
// candidates N_b of the paper's initial routing loop.
func (g *Graph) NonBridges() []int {
	var out []int
	for i := range g.Edges {
		if g.Edges[i].Alive && !g.Edges[i].Bridge {
			out = append(out, i)
		}
	}
	return out
}

// AppendNonBridges appends the alive non-bridge edge ids to dst and
// returns it, letting hot callers reuse a compact scratch buffer.
func (g *Graph) AppendNonBridges(dst []int32) []int32 {
	for i := range g.Edges {
		if g.Edges[i].Alive && !g.Edges[i].Bridge {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// AliveCount returns the number of alive edges.
func (g *Graph) AliveCount() int { return g.alive }

// other32 returns the end of edge e opposite v, over the compact int32
// ids the hot loops traffic in.
func (g *Graph) other32(e, v int32) int32 {
	if int32(g.Edges[e].U) == v {
		return int32(g.Edges[e].V)
	}
	return int32(g.Edges[e].U)
}

func (g *Graph) degree(v int) int {
	d := 0
	for _, e := range g.adj[v] {
		if g.Edges[e].Alive {
			d++
		}
	}
	return d
}

// connectedFromAlive reports whether the alive edges connect every
// terminal and every vertex they touch. Visited vertices carry the
// workspace's generation stamp, and pruneq serves as the DFS stack.
func (g *Graph) connectedFromAlive() bool {
	start := -1
	need := 0
	for v := range g.Verts {
		if g.Verts[v].Kind == VTerm || g.degree(v) > 0 {
			need++
			if start == -1 {
				start = v
			}
		}
	}
	if start == -1 {
		return true
	}
	w := &g.ws
	w.reset(len(g.Verts))
	w.stamp[start] = w.gen
	count := 1
	stack := append(w.pruneq[:0], int32(start))
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			if !g.Edges[e].Alive {
				continue
			}
			if u := g.other32(e, v); w.stamp[u] != w.gen {
				w.stamp[u] = w.gen
				count++
				stack = append(stack, u)
			}
		}
	}
	w.pruneq = stack[:0]
	return count == need
}

// RecomputeBridges runs a DFS lowlink pass over the alive edges and updates
// every edge's Bridge flag. It returns the ids of edges whose flag flipped,
// so the caller can update the d_m density profile incrementally. The
// returned slice is workspace-backed: it is valid until the next
// RecomputeBridges call on this graph and must not be retained.
func (g *Graph) RecomputeBridges() (flipped []int) {
	n := len(g.Verts)
	w := &g.ws
	if len(w.disc) < n {
		w.disc = make([]int32, n)
		w.low = make([]int32, n)
	}
	if len(w.newBridge) < len(g.Edges) {
		w.newBridge = make([]bool, len(g.Edges))
	}
	disc, low := w.disc[:n], w.low[:n]
	newBridge := w.newBridge[:len(g.Edges)]
	for i := range disc {
		disc[i] = -1
	}
	for i := range newBridge {
		newBridge[i] = false
	}
	var timer int32

	stack := w.frames[:0]
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		disc[s] = timer
		low[s] = timer
		timer++
		stack = append(stack[:0], bridgeFrame{v: int32(s), parentEdge: -1})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if int(f.idx) < len(g.adj[f.v]) {
				e := g.adj[f.v][f.idx]
				f.idx++
				if !g.Edges[e].Alive || e == f.parentEdge {
					continue
				}
				u := g.other32(e, f.v)
				if disc[u] == -1 {
					disc[u] = timer
					low[u] = timer
					timer++
					stack = append(stack, bridgeFrame{v: u, parentEdge: e})
				} else if disc[u] < low[f.v] {
					low[f.v] = disc[u]
				}
				continue
			}
			// Pop: propagate lowlink to parent and classify the edge.
			fin := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if fin.parentEdge >= 0 {
				p := &stack[len(stack)-1]
				if low[fin.v] < low[p.v] {
					low[p.v] = low[fin.v]
				}
				if low[fin.v] > disc[p.v] {
					newBridge[fin.parentEdge] = true
				}
			}
		}
	}
	w.frames = stack[:0]
	w.flipped = w.flipped[:0]
	for i := range g.Edges {
		if !g.Edges[i].Alive {
			continue
		}
		if g.Edges[i].Bridge != newBridge[i] {
			g.Edges[i].Bridge = newBridge[i]
			w.flipped = append(w.flipped, i)
		}
	}
	return w.flipped
}

// Delete kills a non-bridge edge and prunes any dangling non-terminal stubs
// it exposes. It returns every edge removed (the edge itself first). The
// caller is responsible for recomputing bridges afterwards. The returned
// slice is workspace-backed: it is valid until the next Delete call on this
// graph and must not be retained.
func (g *Graph) Delete(e int) ([]int, error) {
	if e < 0 || e >= len(g.Edges) {
		return nil, fmt.Errorf("rgraph: edge %d out of range", e)
	}
	if !g.Edges[e].Alive {
		return nil, fmt.Errorf("rgraph: edge %d already deleted", e)
	}
	if g.Edges[e].Bridge {
		return nil, fmt.Errorf("rgraph: edge %d is a bridge", e)
	}
	g.Edges[e].Alive = false
	g.alive--
	removed := append(g.ws.removed[:0], e)
	removed = g.Prune(removed)
	g.ws.removed = removed
	return removed, nil
}

// Prune repeatedly removes edges incident to degree-1 non-terminal
// vertices (dangling stubs that cannot carry any connection). Removed edge
// ids are appended to acc, which is returned.
func (g *Graph) Prune(acc []int) []int {
	queue := g.ws.pruneq[:0]
	for v := range g.Verts {
		if g.Verts[v].Kind != VTerm && g.degree(v) == 1 {
			queue = append(queue, int32(v))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if g.Verts[v].Kind == VTerm || g.degree(int(v)) != 1 {
			continue
		}
		for _, e := range g.adj[v] {
			if !g.Edges[e].Alive {
				continue
			}
			g.Edges[e].Alive = false
			g.alive--
			acc = append(acc, int(e))
			u := g.other32(e, v)
			if g.Verts[u].Kind != VTerm && g.degree(int(u)) == 1 {
				queue = append(queue, u)
			}
			break
		}
	}
	g.ws.pruneq = queue[:0]
	return acc
}

// IsTree reports whether the alive graph is a tree over its touched
// vertices (the initial-routing termination condition: no cycles left).
func (g *Graph) IsTree() bool {
	for i := range g.Edges {
		if g.Edges[i].Alive && !g.Edges[i].Bridge {
			return false
		}
	}
	return true
}

// Validate checks internal invariants; used by tests and the router's
// debug mode.
func (g *Graph) Validate() error {
	count := 0
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Alive {
			count++
		}
		if e.X2 < e.X1 {
			return fmt.Errorf("rgraph: edge %d interval reversed", i)
		}
		if e.Kind == ETrunk && e.X1 == e.X2 {
			return fmt.Errorf("rgraph: trunk edge %d has zero extent", i)
		}
		if e.Kind != ETrunk && e.Kind != EFeed && e.U == e.V {
			return fmt.Errorf("rgraph: edge %d is a self loop", i)
		}
	}
	if count != g.alive {
		return fmt.Errorf("rgraph: alive count %d != actual %d", g.alive, count)
	}
	if !g.connectedFromAlive() {
		return fmt.Errorf("rgraph: graph disconnected")
	}
	for _, tv := range g.TermVert {
		if g.degree(tv) == 0 {
			return fmt.Errorf("rgraph: terminal vertex %d isolated", tv)
		}
	}
	// Prune invariant: no dangling non-terminal stubs survive an edit.
	for v := range g.Verts {
		if g.Verts[v].Kind != VTerm && g.degree(v) == 1 {
			return fmt.Errorf("rgraph: non-terminal vertex %d dangles (prune missed it)", v)
		}
	}
	return nil
}
