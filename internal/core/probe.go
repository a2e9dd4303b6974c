package core

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/dgraph"
	"repro/internal/feed"
)

// Probe exposes the candidate-selection engine on a fully initialized but
// un-routed router, for benchmarks and profiling harnesses (see
// docs/PERF.md). It builds the complete routing state — feedthrough
// assignment, routing graphs, timing analysis, density profiles — without
// running any deletion phase, so repeated selection sweeps measure the
// engine itself rather than a moving routing state.
type Probe struct {
	r     *router
	nbBuf []int32 // DPrimeSweep candidate buffer
}

// NewProbe validates the circuit and builds the router state exactly as
// Route does, stopping before the first phase.
func NewProbe(ckt *circuit.Circuit, cfg Config) (*Probe, error) {
	if err := ckt.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	order, err := netOrder(ckt, cfg)
	if err != nil {
		return nil, err
	}
	fr, err := feed.Assign(ckt, order)
	if err != nil {
		return nil, err
	}
	r := &router{cfg: cfg, ckt: fr.Ckt, geo: fr.Geo, feeds: fr.Feeds}
	if r.dg, err = dgraph.New(r.ckt); err != nil {
		return nil, err
	}
	if err := r.setup(); err != nil {
		return nil, err
	}
	return &Probe{r: r}, nil
}

// SelectEdge runs one §3.4/§3.5 selection sweep over every net and
// reports the winning candidate. With a warm cache (no call to
// InvalidateAll in between) this measures the incremental fast path.
func (p *Probe) SelectEdge(areaOrder bool) (net, edge int, ok bool) {
	c, ok := p.r.selectEdge(nil, areaOrder)
	return int(c.net), int(c.edge), ok
}

// InvalidateAll marks every net's cached score and criteria stale, so the
// next SelectEdge rescores the whole circuit (the cold path).
func (p *Probe) InvalidateAll() {
	for n := range p.r.graphs {
		p.r.touchNet(n)
	}
}

// DPrimeSweep recomputes the tentative routed length d′ for every
// candidate edge of every net, bypassing the per-net d′ cache. It returns
// the sum of the lengths so callers can sink the result.
func (p *Probe) DPrimeSweep() float64 {
	r := p.r
	var sum float64
	for n := range r.graphs {
		r.touchGeo(n) // stale-stamp the d′ cache without touching the graph
		p.nbBuf = r.graphs[n].AppendNonBridges(p.nbBuf[:0])
		for _, e := range p.nbBuf {
			sum += r.dPrime(n, int(e))
		}
	}
	return sum
}

// Stats reports the cumulative selection counters: sweeps run, per-net
// scores recomputed, scores served from the incremental cache, and total
// time inside SelectEdge.
func (p *Probe) Stats() (calls, scored, reused int, dur time.Duration) {
	s := p.r.selStat
	return s.calls, s.scored, s.reused, s.dur
}

// TimingFlush marks the given nets' delays changed (re-deriving each
// net's delay from its current tree) and flushes the dirty constraint
// set, returning how many constraints were re-analyzed. It exercises the
// incremental timing path exactly as refreshTrees does, without moving
// the routing state.
func (p *Probe) TimingFlush(nets []int) int {
	r := p.r
	for _, n := range nets {
		r.applyNetDelay(n)
	}
	start := time.Now() //bgr:allow clockuse -- profiling only: feeds timStats, never steers routing
	touched := r.tm.Flush()
	r.timStat.dur += time.Since(start) //bgr:allow clockuse -- profiling only: feeds timStats, never steers routing
	r.timStat.flushes++
	r.timStat.cons += len(touched)
	for _, c := range touched {
		r.touchCons(c)
	}
	return len(touched)
}

// TimingStats reports the cumulative timing-flush counters: flushes run,
// constraints re-analyzed across them, and total time inside Flush.
func (p *Probe) TimingStats() (flushes, cons int, dur time.Duration) {
	s := p.r.timStat
	return s.flushes, s.cons, s.dur
}
