// Package steiner is the per-net global router: nets route one after
// another, each on its own redundant routing graph as the union of
// congestion-weighted shortest paths between its terminals, and every
// tree's channel density is committed before the next net routes.
// Nothing is revisited, so earlier nets never see later nets'
// congestion. Timing reaches the routing only through the net order:
// with constraints on, feedthrough assignment and the build both take
// nets in ascending static slack.
//
// It shares the full substrate with the other engines: feedthrough
// assignment (package feed), redundant routing graphs (package rgraph),
// channel density (package density) and the delay-constraint graph
// (package dgraph), which orders the nets and gives the final lumped
// timing. Unlike the concurrent engine it never deletes edges from a
// shared redundant graph. The router registers here as "steiner";
// package seqroute registers the same router as "sequential", the
// net-at-a-time baseline the paper argues against.
//
// The edge weight is
//
//	w(e) = len(e)·(1 + α·overflow(e))  on trunk edges, len(e) on all others
//
// where α is 0.35 and overflow is how far the channel's committed
// density plus the net's pitch exceeds a target track count derived
// from the circuit's average column demand.
package steiner

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/dgraph"
	"repro/internal/engine"
	"repro/internal/feed"
	"repro/internal/grid"
	"repro/internal/rgraph"
)

// alpha scales the congestion penalty of a trunk edge per track of
// overflow.
const alpha = 0.35

// run carries one routing invocation's state.
type run struct {
	ctx    context.Context
	cfg    engine.Config
	target int

	ckt    *circuit.Circuit
	geo    *grid.Geometry
	feeds  [][]rgraph.FeedPos
	graphs []*rgraph.Graph
	wl     []float64
	dens   *density.State
}

// Route routes ckt with the per-net router. It is the package-level
// entry used by the adapter, by package seqroute and by experiments that
// want this engine without the registry.
func Route(ctx context.Context, ckt *circuit.Circuit, cfg engine.Config) (*engine.Result, error) {
	start := time.Now() //bgr:allow clockuse -- profiling only
	if err := ckt.Validate(); err != nil {
		return nil, fmt.Errorf("steiner: %w", err)
	}
	dg, err := dgraph.New(ckt)
	if err != nil {
		return nil, err
	}
	var order []int
	if cfg.UseConstraints {
		order = dg.SlackOrder()
	}
	fr, err := feed.Assign(ckt, order)
	if err != nil {
		return nil, err
	}
	// Feed cells carry no pins (Validate refuses pins on a feed type), so
	// the widened copy has the input's delay graph.
	dg.Ckt = fr.Ckt
	r := &run{
		ctx:    ctx,
		cfg:    cfg,
		target: demandTarget(fr.Ckt),
		ckt:    fr.Ckt,
		geo:    fr.Geo,
		feeds:  fr.Feeds,
		graphs: make([]*rgraph.Graph, len(fr.Ckt.Nets)),
		wl:     make([]float64, len(fr.Ckt.Nets)),
		dens:   density.New(fr.Ckt.Channels(), fr.Ckt.Cols),
	}

	buildStart := time.Now() //bgr:allow clockuse -- profiling only
	built, err := r.build(order)
	if err != nil {
		return nil, err
	}
	phases := []engine.PhaseStat{{
		Name:     "build",
		Accepted: built,
		Duration: time.Since(buildStart), //bgr:allow clockuse -- profiling only
	}}

	// A fresh lumped timing analysis over the committed trees.
	tm := dg.NewTiming()
	tm.SetLumped(r.wl)
	tm.Analyze()

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
	res.Delay, _ = tm.Worst()
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

// routeNet builds net n's redundant graph, selects the
// congestion-weighted tree, and commits it.
func (r *run) routeNet(n int) error {
	g, err := rgraph.Build(r.ckt, r.geo, n, r.feeds[n])
	if err != nil {
		return err
	}
	tree, err := g.TentativeWeighted(r.weight(g))
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

// weight is the congestion-weighted edge cost on net graph g:
// len·(1+α·overflow) on a trunk edge whose channel would exceed the
// target, len on every other edge.
func (r *run) weight(g *rgraph.Graph) func(e int) float64 {
	return func(e int) float64 {
		ed := &g.Edges[e]
		c := ed.Len
		if ed.Kind == rgraph.ETrunk {
			over := r.dens.Edge(ed.Ch, ed.X1, ed.X2).DM + g.Pitch - r.target
			if over > 0 {
				c *= 1 + alpha*float64(over)
			}
		}
		if c == 0 { // only a zero-length edge needs a positive cost for Dijkstra
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

// demandTarget derives the per-channel density target: half-perimeter
// column demand spread over channels × columns, floored at one track.
// It runs after feedthrough assignment, so it sees the (possibly
// widened) chip.
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
