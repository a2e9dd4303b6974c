// Package dgraph builds the global delay graph G_D of Harada & Kitazawa
// §2 and runs the longest-path static timing analysis the router uses:
// per-constraint delay subgraphs Gd(P), forward/backward longest paths,
// margins M(P), critical-net extraction, and the arc-delay bookkeeping for
// both the paper's lumped-capacitance model and the Elmore (RC) extension.
//
// Vertices are circuit terminals. Arcs are either cell arcs (input pin →
// output pin, delay T0) or net arcs (driving terminal → fan-out terminal,
// delay (Σ Fin)·Tf + CL·Td under the lumped model).
package dgraph

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/circuit"
)

// NoNet marks a cell arc in Arc.Net.
const NoNet = -1

// ErrGraphTooLarge reports a circuit whose delay graph would not fit the
// int32 vertex/arc indices the graph and its per-constraint subgraphs are
// stored in. Building it anyway would silently truncate indices.
var ErrGraphTooLarge = errors.New("dgraph: graph exceeds int32 index capacity")

// maxGraphInts is the largest vertex or arc count the int32 index layout
// can hold. A variable, not a constant, so the overflow test can lower it
// without building a >2^31-element circuit.
var maxGraphInts = math.MaxInt32

// Arc is one delay arc of G_D.
type Arc struct {
	From, To int // vertex indices
	Net      int // net index for net arcs, NoNet for cell arcs
	Sink     int // fan-out index within the net for net arcs
	T0       float64
}

// Graph is the global delay graph of a circuit.
type Graph struct {
	Ckt   *circuit.Circuit
	Verts []circuit.PinRef
	Arcs  []Arc

	vidx    vertIndex
	out, in [][]int // arc indices per vertex
	topo    []int   // vertices in topological order

	// netArcs[n] lists the arc indices of net n, in fan-out order.
	netArcs [][]int
	// lumpFan/lumpCap/lumpTd are the constant factors of the lumped delay
	// formula, precomputed per net at build time: the delay for wire
	// length L is lumpFan[n] + (L·lumpCap[n])·lumpTd[n], the exact
	// operation order of the original on-the-fly derivation. Deriving them
	// per call walks the driver and fan-out pin lists (allocating a
	// terminal slice each time), which the per-deletion timing refresh
	// cannot afford.
	lumpFan []float64 // (Σ Fin)·Tf
	lumpCap []float64 // WireCapPerUm(pitch)
	lumpTd  []float64 // Td of the driver
	cons    []consMask
	// consOfNet[n] lists constraints whose Gd(P) contains an arc of n.
	consOfNet [][]int
	// subs[p] is the compact induced subgraph of Gd(P) (see subgraph.go):
	// the per-constraint analysis walks it instead of the global graph.
	subs []subgraph
}

type consMask struct {
	inS, toT []bool // forward-reachable from S_P / backward-reachable to T_P
	srcs     []int
	sinks    []int
}

// vertIndex maps terminals to vertex indices without hashing: cell pins
// live in one flat array addressed by per-cell offsets, external terminals
// in their own array. -1 marks a terminal with no vertex.
type vertIndex struct {
	off  []int32 // per cell: start of its pin row in pins
	pins []int32 // vertex per (cell, pin)
	ext  []int32 // vertex per external terminal
}

func newVertIndex(ckt *circuit.Circuit) vertIndex {
	vi := vertIndex{off: make([]int32, len(ckt.Cells)+1)}
	total := 0
	for ci := range ckt.Cells {
		vi.off[ci] = int32(total)
		total += len(ckt.CellTypeOf(ci).Pins)
	}
	vi.off[len(ckt.Cells)] = int32(total)
	vi.pins = make([]int32, total)
	for i := range vi.pins {
		vi.pins[i] = -1
	}
	vi.ext = make([]int32, len(ckt.Ext))
	for i := range vi.ext {
		vi.ext[i] = -1
	}
	return vi
}

func (vi *vertIndex) get(ref circuit.PinRef) int {
	if ref.IsExt() {
		if ref.Pin < 0 || ref.Pin >= len(vi.ext) {
			return -1
		}
		return int(vi.ext[ref.Pin])
	}
	if ref.Cell < 0 || ref.Cell >= len(vi.off)-1 {
		return -1
	}
	row := vi.pins[vi.off[ref.Cell]:vi.off[ref.Cell+1]]
	if ref.Pin < 0 || ref.Pin >= len(row) {
		return -1
	}
	return int(row[ref.Pin])
}

func (vi *vertIndex) set(ref circuit.PinRef, v int) {
	if ref.IsExt() {
		vi.ext[ref.Pin] = int32(v)
		return
	}
	vi.pins[vi.off[ref.Cell]+int32(ref.Pin)] = int32(v)
}

// VertexOf returns the vertex index of a terminal, or -1 if the terminal is
// unconnected.
func (g *Graph) VertexOf(ref circuit.PinRef) int {
	return g.vidx.get(ref)
}

// ConsOfNet returns the constraints whose Gd(P) contains an arc of net n.
func (g *Graph) ConsOfNet(net int) []int { return g.consOfNet[net] }

// inGd reports whether arc a belongs to Gd(P): its tail is reachable from
// S_P and its head reaches T_P.
func (g *Graph) inGd(p, a int) bool {
	arc := &g.Arcs[a]
	return g.cons[p].inS[arc.From] && g.cons[p].toT[arc.To]
}

// New builds the delay graph. The circuit must validate (in particular the
// combinational part must be acyclic). Circuits whose vertex or arc count
// would overflow the int32 indices the graph (and its per-constraint
// subgraphs) are stored in are rejected with ErrGraphTooLarge.
func New(ckt *circuit.Circuit) (*Graph, error) {
	// Bounds first, from the circuit alone: newVertIndex below already
	// narrows pin offsets to int32, so the check cannot come after it.
	// Vertices are a subset of all terminals, net arcs number one per
	// non-driving terminal, and cell arcs are bounded by the per-cell arc
	// lists.
	totalPins := 0
	for ci := range ckt.Cells {
		totalPins += len(ckt.CellTypeOf(ci).Pins)
	}
	maxVerts := totalPins + len(ckt.Ext)
	maxArcs := len(ckt.Ext)
	for n := range ckt.Nets {
		maxArcs += len(ckt.Nets[n].Pins)
	}
	for ci := range ckt.Cells {
		maxArcs += len(ckt.CellTypeOf(ci).Arcs)
	}
	if maxVerts > maxGraphInts || maxArcs > maxGraphInts {
		return nil, fmt.Errorf("%w: %d terminals / %d arcs exceed the int32 index limit %d",
			ErrGraphTooLarge, maxVerts, maxArcs, maxGraphInts)
	}
	g := &Graph{Ckt: ckt, vidx: newVertIndex(ckt)}
	g.Verts = make([]circuit.PinRef, 0, maxVerts)
	g.Arcs = make([]Arc, 0, maxArcs)
	vert := func(ref circuit.PinRef) int {
		if v := g.vidx.get(ref); v >= 0 {
			return v
		}
		v := len(g.Verts)
		g.vidx.set(ref, v)
		g.Verts = append(g.Verts, ref)
		return v
	}

	// Net arcs: driver to each fan-out. The fan-outs are walked in
	// Terminals order (externals then cell pins, driver skipped) without
	// materializing the terminal slice; the load sum runs in the same
	// order so the float result is bit-identical to FanoutLoad.
	g.netArcs = make([][]int, len(ckt.Nets))
	g.lumpFan = make([]float64, len(ckt.Nets))
	g.lumpCap = make([]float64, len(ckt.Nets))
	g.lumpTd = make([]float64, len(ckt.Nets))
	netStart := make([]int32, len(ckt.Nets)+1)
	for n := range ckt.Nets {
		netStart[n] = int32(len(g.Arcs))
		drv, err := ckt.Driver(n)
		if err != nil {
			return nil, err
		}
		tf, td := ckt.DriveOf(drv)
		g.lumpCap[n] = ckt.Tech.WireCapPerUm(ckt.Nets[n].Pitch)
		g.lumpTd[n] = td
		dv := vert(drv)
		si := 0
		load := 0.0
		addSink := func(t circuit.PinRef) {
			load += ckt.FinOf(t)
			g.Arcs = append(g.Arcs, Arc{From: dv, To: vert(t), Net: n, Sink: si})
			si++
		}
		for i := range ckt.Ext {
			if ckt.Ext[i].Net == n {
				if r := circuit.Ext(i); r != drv {
					addSink(r)
				}
			}
		}
		for _, p := range ckt.Nets[n].Pins {
			if p != drv {
				addSink(p)
			}
		}
		g.lumpFan[n] = load * tf
	}
	netStart[len(ckt.Nets)] = int32(len(g.Arcs))
	arcIdx := make([]int, len(g.Arcs))
	for a := range arcIdx {
		arcIdx[a] = a
	}
	for n := range ckt.Nets {
		g.netArcs[n] = arcIdx[netStart[n]:netStart[n+1]:netStart[n+1]]
	}
	// Cell arcs, only between connected pins.
	idx := ckt.BuildPinNetIndex()
	for ci := range ckt.Cells {
		ct := ckt.CellTypeOf(ci)
		for _, arc := range ct.Arcs {
			fr := circuit.PinRef{Cell: ci, Pin: ct.PinIndex(arc.From)}
			to := circuit.PinRef{Cell: ci, Pin: ct.PinIndex(arc.To)}
			if !idx.Contains(fr) {
				continue
			}
			if !idx.Contains(to) {
				continue
			}
			g.Arcs = append(g.Arcs, Arc{From: vert(fr), To: vert(to), Net: NoNet, T0: arc.T0})
		}
	}

	// Per-vertex arc lists as views into two shared backing arrays: one
	// counting pass sizes every row, so no per-vertex append-and-regrow.
	g.out = make([][]int, len(g.Verts))
	g.in = make([][]int, len(g.Verts))
	outDeg := make([]int32, len(g.Verts))
	inDeg := make([]int32, len(g.Verts))
	for a := range g.Arcs {
		outDeg[g.Arcs[a].From]++
		inDeg[g.Arcs[a].To]++
	}
	outIdx := make([]int, len(g.Arcs))
	inIdx := make([]int, len(g.Arcs))
	off := 0
	for v := range g.out {
		g.out[v] = outIdx[off : off : off+int(outDeg[v])]
		off += int(outDeg[v])
	}
	off = 0
	for v := range g.in {
		g.in[v] = inIdx[off : off : off+int(inDeg[v])]
		off += int(inDeg[v])
	}
	for a := range g.Arcs {
		f, t := g.Arcs[a].From, g.Arcs[a].To
		g.out[f] = append(g.out[f], a)
		g.in[t] = append(g.in[t], a)
	}
	if err := g.toposort(); err != nil {
		return nil, err
	}
	g.buildConstraintMasks()
	g.buildSubgraphs()
	return g, nil
}

func (g *Graph) toposort() error {
	indeg := make([]int, len(g.Verts))
	for a := range g.Arcs {
		indeg[g.Arcs[a].To]++
	}
	queue := make([]int, 0, len(g.Verts))
	for v := range indeg {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	g.topo = g.topo[:0]
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.topo = append(g.topo, v)
		for _, a := range g.out[v] {
			w := g.Arcs[a].To
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(g.topo) != len(g.Verts) {
		return fmt.Errorf("dgraph: delay graph has a cycle")
	}
	return nil
}

func (g *Graph) buildConstraintMasks() {
	g.cons = make([]consMask, len(g.Ckt.Cons))
	g.consOfNet = make([][]int, len(g.Ckt.Nets))
	for p := range g.Ckt.Cons {
		m := consMask{
			inS: make([]bool, len(g.Verts)),
			toT: make([]bool, len(g.Verts)),
		}
		var fwd []int
		for _, r := range g.Ckt.Cons[p].From {
			if v := g.VertexOf(r); v >= 0 && !m.inS[v] {
				m.inS[v] = true
				m.srcs = append(m.srcs, v)
				fwd = append(fwd, v)
			}
		}
		for len(fwd) > 0 {
			v := fwd[len(fwd)-1]
			fwd = fwd[:len(fwd)-1]
			for _, a := range g.out[v] {
				if w := g.Arcs[a].To; !m.inS[w] {
					m.inS[w] = true
					fwd = append(fwd, w)
				}
			}
		}
		var bwd []int
		for _, r := range g.Ckt.Cons[p].To {
			if v := g.VertexOf(r); v >= 0 && !m.toT[v] {
				m.toT[v] = true
				m.sinks = append(m.sinks, v)
				bwd = append(bwd, v)
			}
		}
		for len(bwd) > 0 {
			v := bwd[len(bwd)-1]
			bwd = bwd[:len(bwd)-1]
			for _, a := range g.in[v] {
				if w := g.Arcs[a].From; !m.toT[w] {
					m.toT[w] = true
					bwd = append(bwd, w)
				}
			}
		}
		g.cons[p] = m
		for n := range g.Ckt.Nets {
			for _, a := range g.netArcs[n] {
				if g.inGd(p, a) {
					g.consOfNet[n] = append(g.consOfNet[n], p)
					break
				}
			}
		}
	}
}

// Reachable returns the vertex set reachable from a terminal along delay
// arcs (used e.g. to pick valid constraint endpoints). The result is
// indexed by vertex id; it is all-false for unconnected terminals.
func (g *Graph) Reachable(from circuit.PinRef) []bool {
	seen := make([]bool, len(g.Verts))
	start := g.VertexOf(from)
	if start < 0 {
		return seen
	}
	seen[start] = true
	stack := []int{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.out[v] {
			if w := g.Arcs[a].To; !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// LumpedArcDelay returns the net-arc delay of the lumped capacitance model
// for the given estimated wire length (µm): (Σ Fin)·Tf + CL·Td, shared by
// every sink of the net. Both factors are precomputed at build time, so
// this is two FLOPs — it sits inside the candidate-scoring inner loop.
func (g *Graph) LumpedArcDelay(net int, wirelenUm float64) float64 {
	cl := wirelenUm * g.lumpCap[net]
	return g.lumpFan[net] + cl*g.lumpTd[net]
}

// Timing holds arc delays plus per-constraint longest-path results. Create
// one with NewTiming, set delays, then Flush (or Analyze). The delay
// setters record which constraints are affected in a dirty set; Flush
// re-analyzes exactly those.
type Timing struct {
	G        *Graph
	ArcDelay []float64
	Cons     []ConsTiming

	// Dirty-set bookkeeping, owned by MarkNet/MarkAll/Flush. Every delay
	// setter must mark what it changes: TestFlushEquivalence fails if a
	// setter skips MarkNet or MarkNet skips dirtyCount.
	dirty      []bool
	dirtyCount int
	flushBuf   []int // Flush result backing, lent until the next Flush

	// netSeen/netGen are the CriticalNets dedup scratch: a nets-aligned
	// mark slice with a generation counter (no per-call map allocation).
	netSeen []int
	netGen  int

	// refF is the graph-sized scratch of ReferenceWorst.
	refF []float64
}

// ConsTiming is the analysis of one constraint P.
type ConsTiming struct {
	// LpF[v] is the longest arrival delay from S_P to v within Gd(P);
	// LpR[v] the longest departure delay from v to T_P. Both are indexed
	// by the constraint's compact subgraph ids (local, topo-ordered) —
	// |Gd(P)| entries, not one per global vertex. Unreachable local
	// vertices hold -Inf.
	LpF, LpR []float64
	Worst    float64 // critical path delay of Gd(P)
	Margin   float64 // M(P) = limit - Worst
}

// NewTiming allocates a Timing with all cell-arc delays filled in and all
// net-arc delays zero. Every constraint starts dirty, so the first Flush
// (or Analyze) covers the full constraint set.
func (g *Graph) NewTiming() *Timing {
	t := &Timing{
		G:        g,
		ArcDelay: make([]float64, len(g.Arcs)),
		Cons:     make([]ConsTiming, len(g.Ckt.Cons)),
		dirty:    make([]bool, len(g.Ckt.Cons)),
	}
	for a := range g.Arcs {
		if g.Arcs[a].Net == NoNet {
			t.ArcDelay[a] = g.Arcs[a].T0
		}
	}
	for p := range t.Cons {
		n := len(g.subs[p].verts)
		t.Cons[p].LpF = make([]float64, n)
		t.Cons[p].LpR = make([]float64, n)
	}
	t.MarkAll()
	return t
}

// SetLumped sets every net arc's delay from the lumped model and the given
// per-net estimated wire lengths (µm), marking every constraint dirty.
func (t *Timing) SetLumped(wirelenUm []float64) {
	for n, arcs := range t.G.netArcs {
		d := t.G.LumpedArcDelay(n, wirelenUm[n])
		for _, a := range arcs {
			t.ArcDelay[a] = d
		}
	}
	t.MarkAll()
}

// SetNetLumped updates one net's arcs from the lumped model and marks the
// net's constraints dirty.
func (t *Timing) SetNetLumped(net int, wirelenUm float64) {
	d := t.G.LumpedArcDelay(net, wirelenUm)
	for _, a := range t.G.netArcs[net] {
		t.ArcDelay[a] = d
	}
	t.MarkNet(net)
}

// SetNetArcDelays sets per-sink delays for one net (Elmore/RC extension:
// each fan-out sees its own delay) and marks the net's constraints dirty.
// perSink is indexed like Fanouts(net).
func (t *Timing) SetNetArcDelays(net int, perSink []float64) {
	for i, a := range t.G.netArcs[net] {
		t.ArcDelay[a] = perSink[i]
	}
	t.MarkNet(net)
}

var negInf = math.Inf(-1)

// unreached reports whether a longest-path value is still the -Inf
// "no path reaches this vertex" sentinel. The sentinel is assigned and
// propagated verbatim — never the result of arithmetic — so exact
// comparison is the correct test.
func unreached(x float64) bool {
	return x == negInf
}

// Analyze recomputes every constraint's longest paths and margin from the
// current arc delays, regardless of the dirty set (which it consumes:
// after Analyze nothing is pending).
func (t *Timing) Analyze() {
	t.MarkAll()
	t.Flush()
}

// DeltaIfNetDelay returns the paper's pessimistic arrival increase used in
// LM(e,P): max over the arcs (v,w) of the net inside Gd(P) of
// max(0, lp(v) + dNew − lp(w)), where dNew is the prospective new arc
// delay of the net.
func (t *Timing) DeltaIfNetDelay(p, net int, dNew float64) float64 {
	ct := &t.Cons[p]
	sg := &t.G.subs[p]
	var worst float64
	for _, la := range sg.netArcsLocal(int32(net)) {
		a := &sg.arcs[la]
		fv, fw := ct.LpF[a.from], ct.LpF[a.to]
		if unreached(fv) || unreached(fw) {
			continue
		}
		if d := fv + dNew - fw; d > worst {
			worst = d
		}
	}
	return worst
}

const eps = 1e-9

// CriticalNets returns the nets with an arc on a critical (longest) path of
// constraint p, in order of first appearance along the topological order.
// Deduplication uses the Timing's nets-aligned mark slice, so calls do not
// allocate a map (and the output order is index-driven, not map-driven).
func (t *Timing) CriticalNets(p int) []int {
	ct := &t.Cons[p]
	sg := &t.G.subs[p]
	if t.netSeen == nil {
		t.netSeen = make([]int, len(t.G.Ckt.Nets))
	}
	t.netGen++
	gen := t.netGen
	var nets []int
	for v := 0; v < len(sg.verts); v++ {
		if unreached(ct.LpF[v]) || unreached(ct.LpR[v]) {
			continue
		}
		for ai := sg.outStart[v]; ai < sg.outStart[v+1]; ai++ {
			a := &sg.arcs[ai]
			if a.net == NoNet || t.netSeen[a.net] == gen {
				continue
			}
			if unreached(ct.LpR[a.to]) {
				continue
			}
			if math.Abs(ct.LpF[v]+t.ArcDelay[a.global]+ct.LpR[a.to]-ct.Worst) <= eps*(1+math.Abs(ct.Worst)) {
				t.netSeen[a.net] = gen
				nets = append(nets, int(a.net))
			}
		}
	}
	return nets
}

// CriticalPath returns the arc indices of one longest source-to-sink path
// of constraint p, in path order. It returns nil when the constraint has
// no path.
func (t *Timing) CriticalPath(p int) []int {
	ct := &t.Cons[p]
	sg := &t.G.subs[p]
	// Find the worst sink. Worst is a verbatim copy of the largest sink
	// LpF (analyzeOne), so exact equality re-identifies it.
	end := int32(-1)
	for _, s := range sg.sinks {
		if !unreached(ct.LpF[s]) && ct.LpF[s] == ct.Worst {
			end = s
			break
		}
	}
	if end == -1 {
		return nil
	}
	var rev []int
	v := end
	for ct.LpF[v] > 0 {
		found := int32(-1)
		for _, la := range sg.inArcs[sg.inStart[v]:sg.inStart[v+1]] {
			a := &sg.arcs[la]
			if unreached(ct.LpF[a.from]) {
				continue
			}
			d := ct.LpF[a.from] + t.ArcDelay[a.global]
			if math.Abs(d-ct.LpF[v]) <= eps*(1+math.Abs(ct.LpF[v])) {
				found = la
				break
			}
		}
		if found == -1 {
			break
		}
		rev = append(rev, int(sg.arcs[found].global))
		v = sg.arcs[found].from
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Worst returns the worst constrained-path delay over every constraint
// (0 when there are none) and the number of violated constraints, those
// with a negative margin.
func (t *Timing) Worst() (delay float64, violations int) {
	for p := range t.Cons {
		if t.Cons[p].Worst > delay {
			delay = t.Cons[p].Worst
		}
		if t.Cons[p].Margin < 0 {
			violations++
		}
	}
	return delay, violations
}

// NetSlacks runs the zero-interconnect analysis of §3.1 and returns, per
// net, the smallest path slack of any constraint arc the net lies on
// (+Inf for nets on no constrained path). The router orders feedthrough
// assignment by these values ascending.
func (g *Graph) NetSlacks() []float64 {
	t := g.NewTiming()
	t.SetLumped(make([]float64, len(g.Ckt.Nets)))
	t.Analyze()
	slacks := make([]float64, len(g.Ckt.Nets))
	for n := range slacks {
		slacks[n] = math.Inf(1)
		for _, p := range g.consOfNet[n] {
			ct := &t.Cons[p]
			sg := &g.subs[p]
			for _, la := range sg.netArcsLocal(int32(n)) {
				a := &sg.arcs[la]
				if unreached(ct.LpF[a.from]) || unreached(ct.LpR[a.to]) {
					continue
				}
				s := g.Ckt.Cons[p].Limit - (ct.LpF[a.from] + t.ArcDelay[a.global] + ct.LpR[a.to])
				if s < slacks[n] {
					slacks[n] = s
				}
			}
		}
	}
	return slacks
}

// SlackOrder returns the net indices by ascending NetSlacks, ties in index
// order: the §3.1 net order every engine assigns feedthroughs and routes
// nets in.
func (g *Graph) SlackOrder() []int {
	slacks := g.NetSlacks()
	order := make([]int, len(slacks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slacks[order[a]] < slacks[order[b]] })
	return order
}
