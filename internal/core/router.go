package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/dgraph"
	"repro/internal/faultinject"
	"repro/internal/feed"
	"repro/internal/grid"
	"repro/internal/rgraph"
)

type router struct {
	ctx    context.Context
	cfg    Config
	ckt    *circuit.Circuit
	geo    *grid.Geometry
	feeds  [][]rgraph.FeedPos
	graphs []*rgraph.Graph
	dg     *dgraph.Graph
	tm     *dgraph.Timing
	trees  []*rgraph.Tree
	wl     []float64
	dens   *density.State
	pairOf []int // diff mate or -1
	// slotOwner records the net occupying each feedthrough column, as a
	// flat row-major array (-1 = free); feed re-allocation probes it once
	// per candidate slot, so it must be an O(1) array read.
	slotOwner []int32
	slotCols  int

	// Criteria cache (see criteria.go). timEpoch[n] starts at 1 and
	// advances whenever anything net n's criteria read changes: its own
	// graph, its differential mate's, or the margin of a constraint
	// touching either. dcCache entries are stamped with it, so a zero
	// entry reads as stale.
	timEpoch []int32
	dcCache  [][]delayCrit

	// Incremental selection engine (see criteria.go).
	best       []netBest // cached per-net ranked best candidate
	netsOfCons [][]int   // reverse of dg.ConsOfNet: nets touching each constraint
	// nbList[n] is net n's candidate list (its alive non-bridge edges, in
	// edge order) and netChans[n] the distinct channels those candidates
	// lie in — the only channels keyFor reads density from for net n.
	// refreshCandidates rebuilds both wherever the candidate set changes.
	nbList   [][]int32
	netChans [][]int
	// dirtyBest marks the nets whose cached best may be stale: bit n clear
	// guarantees best[n] is what scoreNet would compute now, and
	// selectEdge re-scores every net whose bit is set. Bits are set by
	// touchNet, by refreshCandidates, and by draining the density
	// state's changed channels through chanNetBits (bit n of
	// chanNetBits[ch] set iff ch ∈ netChans[n]), so a density change
	// re-scores only the nets with a candidate in a changed channel.
	dirtyBest   []uint64
	chanNetBits [][]uint64
	lastAreaOrd bool // ordering of the previous selectEdge; a flip invalidates all
	// consMark[p] == consGen marks constraint p as already counted by the
	// current delayCriteria call.
	consMark []int
	consGen  int
	selStat  selStats
	timStat  timStats

	// Hot-path scratch buffers, each owned by exactly one (non-reentrant)
	// method and sized once; see docs/PERF.md for the ownership rules.
	elmBuf   []float64 // applyNetDelay: Elmore wire delays
	perBuf   []float64 // applyNetDelay: per-arc delays
	chanMark []int32   // refreshCandidates channel dedup stamps
	chanGen  int32

	// graphPool is a free list of retired routing graphs whose storage
	// BuildInto recycles (see reroute.go).
	graphPool []*rgraph.Graph

	phases []PhaseStat
	// addedPitches is the §4.3 chip widening the routing inherits from
	// feedthrough assignment, columns.
	addedPitches int
}

// congScored is one entry of congestedNets' working list.
type congScored struct {
	net   int
	cover int
}

// takeGraph pops a retired graph for BuildInto recycling (nil when empty).
func (r *router) takeGraph() *rgraph.Graph {
	if len(r.graphPool) == 0 {
		return nil
	}
	g := r.graphPool[len(r.graphPool)-1]
	r.graphPool = r.graphPool[:len(r.graphPool)-1]
	return g
}

// putGraph retires a graph no longer referenced by the router so a later
// rebuild can reuse its storage. Callers must guarantee nothing else holds
// the graph (rerouting only retires graphs it created itself).
func (r *router) putGraph(g *rgraph.Graph) {
	if g != nil {
		r.graphPool = append(r.graphPool, g)
	}
}

// selStats are cumulative selection counters; runPhase records per-phase
// deltas into PhaseStat.
type selStats struct {
	calls  int
	scored int
	reused int
	dur    time.Duration
}

// timStats are cumulative timing-flush counters; runPhase records
// per-phase deltas into PhaseStat.
type timStats struct {
	flushes int
	cons    int
	dur     time.Duration
}

// Route runs the full global routing algorithm on a validated circuit.
func Route(ckt *circuit.Circuit, cfg Config) (*Result, error) {
	return RouteCtx(context.Background(), ckt, cfg)
}

// RouteCtx is Route with cancellation: the run aborts promptly (between
// edge deletions) when ctx is cancelled or its deadline passes, returning
// an error that wraps ctx.Err(). A nil ctx means context.Background().
func RouteCtx(ctx context.Context, ckt *circuit.Circuit, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now() //bgr:allow clockuse -- profiling only: feeds Result.Duration, never steers routing
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: routing aborted: %w", err)
	}
	r, err := newRouter(ctx, ckt, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.runPhase("initial", func(ps *PhaseStat) error { return r.initialRouting(ps) }); err != nil {
		return nil, err
	}
	if !cfg.SkipImprovement {
		if err := r.improve(routePhases); err != nil {
			return nil, err
		}
	}
	res, err := r.result()
	if err != nil {
		return nil, err
	}
	res.Duration = time.Since(start) //bgr:allow clockuse -- profiling only: feeds Result.Duration, never steers routing
	return res, nil
}

// newRouter validates ckt and builds the complete routing state a route
// starts from: the delay graph, the net ordering for feedthrough
// assignment (§3.1), feedthrough assignment itself and the routing
// graphs, timing and density (setup). It stops before the first phase.
// RouteCtx and the package's tests and benchmarks start here, so a
// benchmark of one selection sweep measures exactly the state Route
// routes.
func newRouter(ctx context.Context, ckt *circuit.Circuit, cfg Config) (*router, error) {
	if err := ckt.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	dg, err := dgraph.New(ckt)
	if err != nil {
		return nil, err
	}
	// The default order is ascending static slack from the
	// zero-interconnect analysis; without constraints there are no slacks
	// (the paper's baseline run), so index order is used — this is one of
	// the two places the timing information enters.
	fr, err := feed.Assign(ckt, netOrder(dg, cfg))
	if err != nil {
		return nil, err
	}
	// Feed cells carry no pins (Validate refuses pins on a feed type), so
	// the widened copy has the input's delay graph.
	dg.Ckt = fr.Ckt
	r := &router{ctx: ctx, cfg: cfg, ckt: fr.Ckt, geo: fr.Geo, feeds: fr.Feeds, dg: dg, addedPitches: fr.AddedPitches}
	if err := r.setup(); err != nil {
		return nil, err
	}
	return r, nil
}

// result packages the finished routing state, checking that every net
// ended as a tree, and drops the graphs' scratch workspaces.
func (r *router) result() (*Result, error) {
	for n, g := range r.graphs {
		if !g.IsTree() {
			return nil, fmt.Errorf("core: net %s did not finish as a tree", r.ckt.Nets[n].Name)
		}
		g.DropScratch()
	}
	res := &Result{
		Ckt: r.ckt, Geo: r.geo, Feeds: r.feeds, Graphs: r.graphs,
		WirelenUm: r.wl, Timing: r.tm, Dens: r.dens,
		AddedPitches: r.addedPitches, Phases: r.phases,
	}
	for _, l := range r.wl {
		res.TotalWirelenUm += l
	}
	res.Delay, _ = r.tm.Worst()
	return res, nil
}

func (r *router) runPhase(name string, f func(*PhaseStat) error) error {
	if err := r.check(); err != nil {
		return err
	}
	// Fault-injection point: a nil-hook no-op in production, lets tests
	// inject an error, delay or panic at every phase boundary.
	if err := faultinject.Fire(faultinject.CorePhase, name); err != nil {
		return fmt.Errorf("core: phase %s: %w", name, err)
	}
	ps := PhaseStat{Name: name}
	r.emit(Progress{Phase: name, Violations: r.liveViolations()})
	selBefore := r.selStat
	timBefore := r.timStat
	start := time.Now() //bgr:allow clockuse -- profiling only: feeds PhaseStat.Duration, never steers routing
	err := f(&ps)
	ps.Duration = time.Since(start) //bgr:allow clockuse -- profiling only: feeds PhaseStat.Duration, never steers routing
	ps.SelectDuration = r.selStat.dur - selBefore.dur
	ps.SelectCalls = r.selStat.calls - selBefore.calls
	ps.ScoredNets = r.selStat.scored - selBefore.scored
	ps.ReusedNets = r.selStat.reused - selBefore.reused
	ps.TimingDuration = r.timStat.dur - timBefore.dur
	ps.TimingFlushes = r.timStat.flushes - timBefore.flushes
	ps.TimingCons = r.timStat.cons - timBefore.cons
	r.phases = append(r.phases, ps)
	if err == nil {
		r.emit(Progress{Phase: name, Deletions: ps.Deletions, Reroutes: ps.Reroutes,
			Accepted: ps.Accepted, Violations: r.liveViolations(), Done: true})
	}
	return err
}

// check returns a wrapped ctx.Err() once the run's context is cancelled.
// A router built without a context (tests drive phases directly) never
// cancels.
func (r *router) check() error {
	if r.ctx == nil {
		return nil
	}
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("core: routing aborted: %w", err)
	}
	return nil
}

// emit delivers a progress snapshot to the configured callback.
func (r *router) emit(p Progress) {
	if r.cfg.Progress != nil {
		r.cfg.Progress(p)
	}
}

// emitPhase reports a phase's current counters mid-flight.
func (r *router) emitPhase(ps *PhaseStat) {
	if r.cfg.Progress == nil {
		return
	}
	r.cfg.Progress(Progress{Phase: ps.Name, Deletions: ps.Deletions,
		Reroutes: ps.Reroutes, Accepted: ps.Accepted, Violations: r.liveViolations()})
}

// liveViolations counts currently violated constraints mid-route.
func (r *router) liveViolations() int {
	if r.tm == nil {
		return 0
	}
	_, v := r.tm.Worst()
	return v
}

// markBestDirty flags net n's cached best for revalidation.
func (r *router) markBestDirty(n int) {
	r.dirtyBest[n>>6] |= 1 << (uint(n) & 63)
}

// clearBestDirty is the inverse; only selectEdge may call it, right after
// revalidating or rescoring net n.
func (r *router) clearBestDirty(n int) {
	r.dirtyBest[n>>6] &^= 1 << (uint(n) & 63)
}

// clearNetChanBits removes net n from the mask of every channel in its
// recorded channel set — the inverse of markNetChanBits, called before
// the set is rebuilt.
func (r *router) clearNetChanBits(n int) {
	for _, ch := range r.netChans[n] {
		r.chanNetBits[ch][n>>6] &^= 1 << (uint(n) & 63)
	}
}

// markNetChanBits adds net n to the mask of every channel in chans, so a
// density change in any of them re-dirties the net's cached best.
func (r *router) markNetChanBits(n int, chans []int) {
	for _, ch := range chans {
		r.chanNetBits[ch][n>>6] |= 1 << (uint(n) & 63)
	}
}

// buildIndexes derives the selection-engine indexes once graphs and the
// delay graph exist: the constraint→nets reverse map and each net's
// candidates and channel set.
func (r *router) buildIndexes() {
	r.netsOfCons = make([][]int, len(r.ckt.Cons))
	for n := range r.graphs {
		for _, p := range r.dg.ConsOfNet(n) {
			r.netsOfCons[p] = append(r.netsOfCons[p], n)
		}
	}
	r.nbList = make([][]int32, len(r.graphs))
	r.netChans = make([][]int, len(r.graphs))
	for n := range r.graphs {
		r.refreshCandidates(n)
	}
}

// refreshCandidates rebuilds net n's candidate list and channel set after
// its alive-edge set or bridge flags changed, and moves the net's bits in
// chanNetBits to the new channels. keyFor reads density only in the
// channel of the candidate it scores, so a density change anywhere else
// cannot move the net's best. Dedup is by generation stamp in the
// router-owned chanMark array, so a rebuild allocates nothing.
func (r *router) refreshCandidates(n int) {
	r.chanGen++
	if r.chanGen == 0 { // wrapped: stale stamps could read as current
		for i := range r.chanMark {
			r.chanMark[i] = 0
		}
		r.chanGen = 1
	}
	gen := r.chanGen
	r.clearNetChanBits(n)
	g := r.graphs[n]
	nb := g.AppendNonBridges(r.nbList[n][:0])
	r.nbList[n] = nb
	chans := r.netChans[n][:0]
	for _, e := range nb {
		if ch := g.Edges[e].Ch; r.chanMark[ch] != gen {
			r.chanMark[ch] = gen
			chans = append(chans, ch)
		}
	}
	r.netChans[n] = chans
	r.markNetChanBits(n, chans)
	r.markBestDirty(n)
}

// setup builds the routing graphs Gr(n) over the assigned feedthroughs
// and then the routing state on top of them (initState).
func (r *router) setup() error {
	graphs := make([]*rgraph.Graph, len(r.ckt.Nets))
	for n := range graphs {
		g, err := rgraph.Build(r.ckt, r.geo, n, r.feeds[n])
		if err != nil {
			return err
		}
		graphs[n] = g
	}
	// Differential pairs must have isomorphic graphs for lock-step
	// deletion (§4.1): identical edge lists up to the constant shift.
	for n, g := range graphs {
		m := r.ckt.Nets[n].DiffMate
		if m == circuit.NoNet || m < n {
			continue
		}
		if err := sameShape(g, graphs[m]); err != nil {
			return fmt.Errorf("core: differential pair %s/%s: %w",
				r.ckt.Nets[n].Name, r.ckt.Nets[m].Name, err)
		}
	}
	return r.initState(graphs)
}

// initState builds the pre-phase routing state over finished routing
// graphs and their feedthroughs (r.feeds): the per-net caches and the
// selection engine, slot ownership, density, the selection indexes, and
// the trees, lengths and timing analysis. Route's setup and ReOptimize
// both end here.
func (r *router) initState(graphs []*rgraph.Graph) error {
	nNets := len(graphs)
	r.graphs = graphs
	r.trees = make([]*rgraph.Tree, nNets)
	r.wl = make([]float64, nNets)
	r.pairOf = make([]int, nNets)
	r.timEpoch = make([]int32, nNets)
	for n := range r.timEpoch {
		r.timEpoch[n] = 1 // zero-valued dcCache entries must read as stale
	}
	r.dcCache = make([][]delayCrit, nNets)
	r.best = make([]netBest, nNets)
	r.dens = densityFor(r.ckt)
	r.slotCols = r.ckt.Cols
	r.slotOwner = make([]int32, r.ckt.Rows*r.ckt.Cols)
	for i := range r.slotOwner {
		r.slotOwner[i] = -1
	}
	r.consMark = make([]int, len(r.ckt.Cons))
	r.chanMark = make([]int32, r.dens.Channels())
	words := (nNets + 63) / 64
	r.dirtyBest = make([]uint64, words)
	for w := range r.dirtyBest {
		r.dirtyBest[w] = ^uint64(0) // everything starts stale
	}
	r.chanNetBits = make([][]uint64, r.dens.Channels())
	for ch := range r.chanNetBits {
		r.chanNetBits[ch] = make([]uint64, words)
	}
	for n, g := range graphs {
		r.pairOf[n] = r.ckt.Nets[n].DiffMate
		r.ownSlots(n, r.feeds[n], true)
		r.densAddGraph(g)
	}
	r.buildIndexes()
	r.tm = r.dg.NewTiming()
	return r.refreshTrees(allNets(nNets))
}

// densityFor allocates an empty density state sized to a circuit.
func densityFor(ckt *circuit.Circuit) *density.State {
	return density.New(ckt.Channels(), ckt.Cols)
}

func allNets(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// sameShape verifies structural isomorphism under the identity edge-index
// mapping.
func sameShape(a, b *rgraph.Graph) error {
	if len(a.Edges) != len(b.Edges) || len(a.Verts) != len(b.Verts) {
		return fmt.Errorf("graphs differ in size (%d/%d edges)", len(a.Edges), len(b.Edges))
	}
	for i := range a.Edges {
		ea, eb := &a.Edges[i], &b.Edges[i]
		if ea.Kind != eb.Kind || ea.U != eb.U || ea.V != eb.V || ea.Ch != eb.Ch {
			return fmt.Errorf("edge %d shape mismatch (%s vs %s); differential pins must be adjacent", i, ea.Kind, eb.Kind)
		}
	}
	return nil
}

// densAddGraph adds every alive edge of a net's graph to the density state.
func (r *router) densAddGraph(g *rgraph.Graph) {
	w := g.Pitch
	for e := range g.Edges {
		ed := &g.Edges[e]
		if !ed.Alive || ed.Kind != rgraph.ETrunk {
			continue
		}
		r.dens.Add(ed.Ch, ed.X1, ed.X2, w)
		if ed.Bridge {
			r.dens.AddBridge(ed.Ch, ed.X1, ed.X2, w)
		}
	}
}

// densRemoveGraph removes every alive edge of a net's graph.
func (r *router) densRemoveGraph(g *rgraph.Graph) {
	w := g.Pitch
	for e := range g.Edges {
		ed := &g.Edges[e]
		if !ed.Alive || ed.Kind != rgraph.ETrunk {
			continue
		}
		r.dens.Remove(ed.Ch, ed.X1, ed.X2, w)
		if ed.Bridge {
			r.dens.RemoveBridge(ed.Ch, ed.X1, ed.X2, w)
		}
	}
}

func (r *router) densRemoveEdges(n int, removed []int) {
	g := r.graphs[n]
	for _, e := range removed {
		ed := &g.Edges[e]
		if ed.Kind != rgraph.ETrunk {
			continue
		}
		r.dens.Remove(ed.Ch, ed.X1, ed.X2, g.Pitch)
		if ed.Bridge {
			r.dens.RemoveBridge(ed.Ch, ed.X1, ed.X2, g.Pitch)
		}
	}
}

func (r *router) densFlipBridges(n int, flips []int) {
	g := r.graphs[n]
	for _, e := range flips {
		ed := &g.Edges[e]
		if ed.Kind != rgraph.ETrunk {
			continue
		}
		if ed.Bridge {
			r.dens.AddBridge(ed.Ch, ed.X1, ed.X2, g.Pitch)
		} else {
			r.dens.RemoveBridge(ed.Ch, ed.X1, ed.X2, g.Pitch)
		}
	}
}

// refreshTrees recomputes tentative trees, wire lengths, net delays and the
// timing analysis for the given nets. applyNetDelay marks each changed
// net's constraints dirty through the Timing setters, and Flush re-analyzes
// exactly that set (ascending constraint order, so cache invalidation
// stays deterministic) — exact, since the other constraints' arc delays
// are untouched. Callers touch the nets they edited before calling it;
// touchCons then reaches every net whose criteria read a changed margin.
func (r *router) refreshTrees(nets []int) error {
	for _, n := range nets {
		t, err := r.graphs[n].TentativeInto(r.trees[n])
		if err != nil {
			return fmt.Errorf("core: net %s: %w", r.ckt.Nets[n].Name, err)
		}
		r.trees[n] = t
		r.wl[n] = t.Length
		r.applyNetDelay(n)
	}
	start := time.Now() //bgr:allow clockuse -- profiling only: feeds PhaseStat.TimingDuration, never steers routing
	touched := r.tm.Flush()
	r.timStat.dur += time.Since(start) //bgr:allow clockuse -- profiling only: feeds PhaseStat.TimingDuration, never steers routing
	r.timStat.flushes++
	r.timStat.cons += len(touched)
	for _, p := range touched {
		r.touchCons(p)
	}
	return nil
}

// touchNet advances the timing epoch of a net and its differential mate,
// invalidating their cached delay criteria and ranked bests. The mate is
// included because delayCriteria(n, e) reads both halves of a pair.
func (r *router) touchNet(n int) {
	pair, k := r.withMate(n)
	for _, nn := range pair[:k] {
		r.timEpoch[nn]++
		r.markBestDirty(nn)
	}
}

// touchCons invalidates every net whose criteria read constraint p's
// margin — the nets with arcs in Gd(P) and their mates.
func (r *router) touchCons(p int) {
	for _, n := range r.netsOfCons[p] {
		r.touchNet(n)
	}
}

// applyNetDelay pushes net n's delay into the timing model according to
// the configured delay model.
func (r *router) applyNetDelay(n int) {
	if r.cfg.DelayModel == Elmore {
		wire := r.graphs[n].ElmoreDelaysInto(r.elmBuf, r.trees[n], r.ckt, r.cfg.RPerUm)
		r.elmBuf = wire
		base := r.dg.LumpedArcDelay(n, r.wl[n])
		per := r.perBuf[:0]
		for i := 1; i < len(wire); i++ {
			per = append(per, base+wire[i])
		}
		r.perBuf = per
		r.tm.SetNetArcDelays(n, per)
		return
	}
	r.tm.SetNetLumped(n, r.wl[n])
}

// withMate returns net n and its differential mate, if any, as the
// first count entries of a pair: the nets whose wiring changes together.
func (r *router) withMate(n int) (nets [2]int, count int) {
	nets[0] = n
	if m := r.pairOf[n]; m != circuit.NoNet {
		nets[1] = m
		return nets, 2
	}
	return nets, 1
}

// deleteEdge removes one selected edge (and its differential mirror),
// updating density, bridges, caches, trees and timing.
func (r *router) deleteEdge(n, e int) error {
	pair, k := r.withMate(n)
	var dirty [2]int // the edited nets whose tentative tree lost an edge
	nDirty := 0
	for _, nn := range pair[:k] {
		g := r.graphs[nn]
		removed, err := g.Delete(e)
		if err != nil {
			return fmt.Errorf("core: net %s edge %d: %w", r.ckt.Nets[nn].Name, e, err)
		}
		r.densRemoveEdges(nn, removed)
		flips := g.RecomputeBridges()
		r.densFlipBridges(nn, flips)
		r.touchNet(nn)
		r.refreshCandidates(nn)
		for _, re := range removed {
			if r.trees[nn].InTree[re] {
				dirty[nDirty] = nn
				nDirty++
				break
			}
		}
	}
	if nDirty > 0 {
		return r.refreshTrees(dirty[:nDirty])
	}
	return nil
}

// initialRouting is the Fig. 2 lines 04-07 loop: repeatedly select a
// non-bridge edge over all nets with the §3.4 heuristics and delete it.
func (r *router) initialRouting(ps *PhaseStat) error {
	areaOrder := r.cfg.AreaFirst
	for {
		best, ok := r.selectEdge(nil, areaOrder)
		if !ok {
			return nil
		}
		kind := r.edgeOf(best).Kind
		if err := r.deleteEdge(int(best.net), int(best.edge)); err != nil {
			return err
		}
		ps.Deletions++
		if int(kind) < len(ps.ByKind) {
			ps.ByKind[kind]++
		}
		r.emitPhase(ps)
		if err := r.check(); err != nil {
			return err
		}
	}
}

// penaltyTotal is Σ_P pen(M(P), P): the global objective of the delay
// phases (eq. 4's reference sum).
func (r *router) penaltyTotal() float64 {
	var sum float64
	for p := range r.tm.Cons {
		sum += pen(r.tm.Cons[p].Margin, r.ckt.Cons[p].Limit)
	}
	return sum
}

// pen is the paper's penalty function: 1 - x/τ for x >= 0, exp(-x/τ) for
// x < 0. The exponent is capped at maxPenExp so every finite margin gives
// a finite penalty: past exp(709) both terms of eq. 4's pen(lm) - pen(M)
// would be +Inf and their difference NaN, and keyLess is a total order
// only over finite keys.
func pen(x, tau float64) float64 {
	if x >= 0 {
		return 1 - x/tau
	}
	e := -x / tau
	if e > maxPenExp {
		e = maxPenExp
	}
	return math.Exp(e)
}

// maxPenExp caps pen's exponent. It acts only on margins below -700τ,
// such as a limit given in ns where ps were meant.
const maxPenExp = 700

// The §3.5 phase names in Fig. 2 order (lines 08, 09, 10): RouteCtx runs
// the phases as routePhases, ReOptimize as ecoPhases.
var (
	routePhases = [3]string{"recover-violations", "improve-delay", "improve-area"}
	ecoPhases   = [3]string{"eco-recover", "eco-delay", "eco-area"}
)

// maxPasses bounds the passes of each improvement phase.
const maxPasses = 3

// improve runs the §3.5 improvement phases under the given names:
// violation recovery and delay improvement when constraints are on, then
// area improvement. Each is one sweep with its own visit order and
// acceptance rule.
func (r *router) improve(names [3]string) error {
	if r.cfg.UseConstraints {
		if err := r.runPhase(names[0], func(ps *PhaseStat) error {
			return r.sweep(ps, r.criticalNets(true), r.cfg.AreaFirst, r.acceptDelay)
		}); err != nil {
			return err
		}
		if err := r.runPhase(names[1], func(ps *PhaseStat) error {
			return r.sweep(ps, r.criticalNets(false), r.cfg.AreaFirst, r.acceptDelay)
		}); err != nil {
			return err
		}
	}
	return r.runPhase(names[2], func(ps *PhaseStat) error {
		return r.sweep(ps, r.congestedNets, true, r.acceptArea)
	})
}

// sweep is the rip-up-and-reroute loop of every improvement phase: each
// pass hands the nets visit yields, in its order, to ripUpAndReroute,
// which keeps a reroute only if accept approves it. The phase ends after
// maxPasses passes or after a pass that keeps nothing.
func (r *router) sweep(ps *PhaseStat, visit func(each func(n int) error) error, areaOrder bool, accept func(before, after objective) bool) error {
	for pass := 0; pass < maxPasses; pass++ {
		kept := false
		err := visit(func(n int) error {
			if err := r.check(); err != nil {
				return err
			}
			improved, err := r.ripUpAndReroute(n, areaOrder, accept)
			if err != nil {
				return err
			}
			ps.Reroutes++
			if improved {
				ps.Accepted++
				kept = true
			}
			r.emitPhase(ps)
			return nil
		})
		if err != nil || !kept {
			return err
		}
	}
	return nil
}

// criticalNets is the visit order of the delay phases (Fig. 2 lines 08
// and 09): the constraints in ascending margin order as the pass starts
// (only the violated ones for recovery), and for each, its critical nets
// as they stand when the walk reaches it.
func (r *router) criticalNets(violatedOnly bool) func(each func(n int) error) error {
	return func(each func(n int) error) error {
		var order []int
		for p := range r.tm.Cons {
			if !violatedOnly || r.tm.Cons[p].Margin < 0 {
				order = append(order, p)
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			return r.tm.Cons[order[a]].Margin < r.tm.Cons[order[b]].Margin
		})
		for _, p := range order {
			for _, n := range r.tm.CriticalNets(p) {
				if err := each(n); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// congestedNets is the visit order of the area phase (Fig. 2 line 10):
// the nets with trunk edges over the maximum-density columns of the most
// congested channel as the pass starts, most congested first (a stable
// sort, so ties keep ascending net order).
func (r *router) congestedNets(each func(n int) error) error {
	ch, cm := r.dens.MaxCM()
	if ch < 0 || cm == 0 {
		return nil
	}
	// An edge interval's ND_M already counts its columns at the channel
	// maximum — MaxCM's channel has C_M == cm, so summing ND_M over the
	// net's trunk edges in the channel is exactly the old per-column
	// profile scan (edges of one net never overlap columns).
	var list []congScored
	for n, g := range r.graphs {
		cover := 0
		for e := range g.Edges {
			ed := &g.Edges[e]
			if !ed.Alive || ed.Kind != rgraph.ETrunk || ed.Ch != ch || ed.X1 == ed.X2 {
				continue
			}
			cover += r.dens.Edge(ed.Ch, ed.X1, ed.X2).NDM
		}
		if cover > 0 {
			list = append(list, congScored{n, cover})
		}
	}
	sort.SliceStable(list, func(a, b int) bool { return list[a].cover > list[b].cover })
	for _, s := range list {
		if err := each(s.net); err != nil {
			return err
		}
	}
	return nil
}
