// Package steiner is a timing-constrained Steiner-tree global router in
// the cost-distance style of Held & Perner: each net gets a tree built by
// congestion-weighted shortest paths whose edge weight blends routing
// cost with geometric distance, and nets on violated delay constraints
// are iteratively re-built with the distance term ramped up until every
// bound is met (or the pure-distance tree — the per-net delay optimum
// under the lumped model — is reached).
//
// It shares the full substrate with the other engines: feedthrough
// assignment (package feed), redundant routing graphs (package rgraph),
// channel density (package density) and the delay-constraint graph
// (package dgraph). Unlike the concurrent engine it never deletes edges
// from a shared redundant graph. Its build phase alone is the sequential
// baseline (package seqroute runs it with SkipImprovement); the refinement
// phase then revisits committed nets when the timing analysis says they
// sit on a violated constraint's critical path.
//
// The edge weight of net n is
//
//	w(e) = len(e)·(1 + α·overflow(e)) + λ_n·len(e)
//
// where overflow is the channel-density excess over the target track
// count and λ_n starts at 0 and ramps ×4 (plus one) per refinement pass
// the net is found critical. Because the lumped delay model is monotone
// in total tree length, the λ→∞ limit — the pure shortest-length tree —
// is the per-net delay optimum on this substrate; the final refinement
// pass jumps critical nets straight to it, so any bound the substrate
// can meet per net is met.
package steiner

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/dgraph"
	"repro/internal/engine"
	"repro/internal/feed"
	"repro/internal/grid"
	"repro/internal/rgraph"
)

const (
	// defaultAlpha is the congestion penalty when Config.Alpha is 0.
	defaultAlpha = 0.35
	// defaultPasses bounds the refinement loop when Config.MaxPasses is 0.
	defaultPasses = 8
	// lambdaRamp multiplies a critical net's distance weight each pass.
	lambdaRamp = 4.0
)

// run carries one routing invocation's state.
type run struct {
	ctx    context.Context
	cfg    engine.Config
	alpha  float64
	target int

	ckt    *circuit.Circuit
	geo    *grid.Geometry
	feeds  [][]rgraph.FeedPos
	graphs []*rgraph.Graph
	wl     []float64
	dens   *density.State

	// lambda is the per-net distance weight; pure marks nets routed by
	// length alone (the delay-optimal fallback).
	lambda []float64
	pure   []bool

	reroutes int
}

// Route routes ckt with the Steiner engine. It is the package-level
// entry used by the adapter and by experiments that want this engine
// without the registry.
func Route(ctx context.Context, ckt *circuit.Circuit, cfg engine.Config) (*engine.Result, error) {
	start := time.Now() //bgr:allow clockuse -- profiling only
	if err := ckt.Validate(); err != nil {
		return nil, fmt.Errorf("steiner: %w", err)
	}
	var order []int
	if cfg.UseConstraints {
		dg0, err := dgraph.New(ckt)
		if err != nil {
			return nil, err
		}
		order = dg0.SlackOrder()
	}
	fr, err := feed.Assign(ckt, order)
	if err != nil {
		return nil, err
	}
	r := &run{
		ctx:    ctx,
		cfg:    cfg,
		alpha:  cfg.Alpha,
		target: cfg.TargetTracks,
		ckt:    fr.Ckt,
		geo:    fr.Geo,
		feeds:  fr.Feeds,
		graphs: make([]*rgraph.Graph, len(fr.Ckt.Nets)),
		wl:     make([]float64, len(fr.Ckt.Nets)),
		dens:   density.New(fr.Ckt.Channels(), fr.Ckt.Cols),
		lambda: make([]float64, len(fr.Ckt.Nets)),
		pure:   make([]bool, len(fr.Ckt.Nets)),
	}
	if r.alpha == 0 { //bgr:allow floateq -- zero-value Config sentinel: an unset Alpha is exactly 0
		r.alpha = defaultAlpha
	}
	if r.target <= 0 {
		r.target = demandTarget(fr.Ckt)
	}

	var phases []engine.PhaseStat
	buildStart := time.Now() //bgr:allow clockuse -- profiling only
	built, err := r.build(order)
	if err != nil {
		return nil, err
	}
	phases = append(phases, engine.PhaseStat{
		Name:     "build",
		Accepted: built,
		Duration: time.Since(buildStart), //bgr:allow clockuse -- profiling only
	})

	tm, err := r.analyze()
	if err != nil {
		return nil, err
	}
	if cfg.UseConstraints && !cfg.SkipImprovement {
		refineStart := time.Now() //bgr:allow clockuse -- profiling only
		tm, err = r.refine(tm)
		if err != nil {
			return nil, err
		}
		phases = append(phases, engine.PhaseStat{
			Name:     "refine",
			Reroutes: r.reroutes,
			Accepted: r.reroutes,
			Duration: time.Since(refineStart), //bgr:allow clockuse -- profiling only
		})
	}

	res := &engine.Result{
		Engine:       "steiner",
		Ckt:          r.ckt,
		Geo:          r.geo,
		Feeds:        r.feeds,
		Graphs:       r.graphs,
		WirelenUm:    r.wl,
		Timing:       tm,
		Dens:         r.dens,
		AddedPitches: fr.AddedPitches,
		Phases:       phases,
		Duration:     time.Since(start), //bgr:allow clockuse -- profiling only
	}
	for p := range tm.Cons {
		if tm.Cons[p].Worst > res.Delay {
			res.Delay = tm.Cons[p].Worst
		}
	}
	for _, l := range r.wl {
		res.TotalWirelenUm += l
	}
	return res, nil
}

// build routes every net once, worst static slack first, committing each
// tree's density before the next net routes.
func (r *run) build(order []int) (int, error) {
	full := order
	if full == nil {
		full = make([]int, len(r.ckt.Nets))
		for i := range full {
			full[i] = i
		}
	}
	r.emit(engine.Progress{Phase: "build"})
	built := 0
	done := make([]bool, len(r.ckt.Nets))
	for _, n := range full {
		if done[n] {
			continue
		}
		if err := r.ctx.Err(); err != nil {
			return built, err
		}
		nets := []int{n}
		if m := r.ckt.Nets[n].DiffMate; m != circuit.NoNet {
			nets = append(nets, m)
		}
		for _, nn := range nets {
			if err := r.routeNet(nn); err != nil {
				return built, err
			}
			done[nn] = true
			built++
			r.emit(engine.Progress{Phase: "build", Accepted: built})
		}
	}
	r.emit(engine.Progress{Phase: "build", Accepted: built, Done: true})
	return built, nil
}

// analyze runs a fresh lumped timing analysis over the committed trees.
func (r *run) analyze() (*dgraph.Timing, error) {
	dg, err := dgraph.New(r.ckt)
	if err != nil {
		return nil, err
	}
	tm := dg.NewTiming()
	tm.SetLumped(r.wl)
	tm.Analyze()
	return tm, nil
}

// refine rips up and re-builds nets on violated constraints' critical
// paths, ramping their distance weight each pass; the last pass routes
// remaining offenders by pure length, the per-net delay optimum.
func (r *run) refine(tm *dgraph.Timing) (*dgraph.Timing, error) {
	passes := r.cfg.MaxPasses
	if passes <= 0 {
		passes = defaultPasses
	}
	r.emit(engine.Progress{Phase: "refine", Violations: violations(tm)})
	for pass := 1; pass <= passes; pass++ {
		if err := r.ctx.Err(); err != nil {
			return tm, err
		}
		crit := r.criticalSet(tm)
		if len(crit) == 0 {
			break
		}
		last := pass == passes
		for _, n := range crit {
			if r.pure[n] {
				continue // already at the per-net optimum
			}
			if last {
				r.pure[n] = true
			} else {
				r.lambda[n] = r.lambda[n]*lambdaRamp + 1
			}
			if err := r.rerouteNet(n, tm); err != nil {
				return tm, err
			}
			r.reroutes++
			r.emit(engine.Progress{Phase: "refine", Reroutes: r.reroutes, Violations: violations(tm)})
		}
		tm.Analyze()
	}
	r.emit(engine.Progress{Phase: "refine", Reroutes: r.reroutes, Violations: violations(tm), Done: true})
	return tm, nil
}

// criticalSet returns the nets on any violated constraint's critical
// path, each paired with its differential mate, sorted and deduplicated
// so the reroute order is index-deterministic.
func (r *run) criticalSet(tm *dgraph.Timing) []int {
	seen := make([]bool, len(r.ckt.Nets))
	var crit []int
	for p := range tm.Cons {
		if tm.Cons[p].Margin >= 0 {
			continue
		}
		for _, n := range tm.CriticalNets(p) {
			if !seen[n] {
				seen[n] = true
				crit = append(crit, n)
			}
			if m := r.ckt.Nets[n].DiffMate; m != circuit.NoNet && !seen[m] {
				seen[m] = true
				crit = append(crit, m)
			}
		}
	}
	sort.Ints(crit)
	return crit
}

// routeNet builds net n's redundant graph, selects the blended-weight
// tree, and commits it.
func (r *run) routeNet(n int) error {
	g, err := rgraph.Build(r.ckt, r.geo, n, r.feeds[n])
	if err != nil {
		return err
	}
	tree, err := g.TentativeWeighted(r.weight(g, n))
	if err != nil {
		return err
	}
	g.KeepOnly(tree)
	g.RecomputeBridges()
	r.graphs[n] = g
	ft := g.FinalTree()
	r.wl[n] = ft.Length
	for _, e := range ft.Edges {
		ed := &g.Edges[e]
		if ed.Kind == rgraph.ETrunk {
			r.dens.Add(ed.Ch, ed.X1, ed.X2, g.Pitch)
			r.dens.AddBridge(ed.Ch, ed.X1, ed.X2, g.Pitch)
		}
	}
	return nil
}

// rerouteNet rips up net n's committed tree (releasing its density) and
// routes it again under the current weight, updating the timing's view
// of the net.
func (r *run) rerouteNet(n int, tm *dgraph.Timing) error {
	old := r.graphs[n]
	ft := old.FinalTree()
	for _, e := range ft.Edges {
		ed := &old.Edges[e]
		if ed.Kind == rgraph.ETrunk {
			r.dens.Remove(ed.Ch, ed.X1, ed.X2, old.Pitch)
			r.dens.RemoveBridge(ed.Ch, ed.X1, ed.X2, old.Pitch)
		}
	}
	if err := r.routeNet(n); err != nil {
		return err
	}
	tm.SetNetLumped(n, r.wl[n])
	return nil
}

// weight is the cost-distance edge weight of net n:
// len·(1+α·overflow) + λ_n·len, or pure length once the net is in
// fallback mode.
func (r *run) weight(g *rgraph.Graph, n int) func(e int) float64 {
	lam := r.lambda[n]
	pure := r.pure[n]
	return func(e int) float64 {
		ed := &g.Edges[e]
		c := ed.Len
		if !pure && ed.Kind == rgraph.ETrunk {
			over := r.dens.Edge(ed.Ch, ed.X1, ed.X2).DM + g.Pitch - r.target
			if over > 0 {
				c *= 1 + r.alpha*float64(over)
			}
		}
		c += lam * ed.Len
		if c == 0 { //bgr:allow floateq -- guards against an exactly-zero-length edge cost before Dijkstra
			c = 1e-9
		}
		return c
	}
}

func (r *run) emit(p engine.Progress) {
	if r.cfg.Progress != nil {
		r.cfg.Progress(p)
	}
}

func violations(tm *dgraph.Timing) int {
	v := 0
	for p := range tm.Cons {
		if tm.Cons[p].Margin < 0 {
			v++
		}
	}
	return v
}

// demandTarget derives the per-channel density target used when
// Config.TargetTracks is 0: half-perimeter column demand spread over
// channels × columns, floored at one track. It runs after feedthrough
// assignment, so it sees the (possibly widened) chip.
func demandTarget(ckt *circuit.Circuit) int {
	var demandCols int
	for n := range ckt.Nets {
		minC, maxC := math.MaxInt32, -1
		for _, t := range ckt.Terminals(n) {
			for _, pos := range ckt.PositionsOf(t) {
				if pos.Col < minC {
					minC = pos.Col
				}
				if pos.Col > maxC {
					maxC = pos.Col
				}
			}
		}
		if maxC > minC {
			demandCols += (maxC - minC) * ckt.Nets[n].Pitch
		}
	}
	per := demandCols / (ckt.Channels() * ckt.Cols)
	if per < 1 {
		per = 1
	}
	return per
}

// steinerEngine adapts the package to the engine registry.
type steinerEngine struct{}

func (steinerEngine) Name() string { return "steiner" }

func (steinerEngine) Route(ctx context.Context, ckt *circuit.Circuit, cfg engine.Config) (*engine.Result, error) {
	return Route(ctx, ckt, cfg)
}

func init() { engine.Register(steinerEngine{}) }
