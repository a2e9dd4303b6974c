package core

import (
	"context"

	"repro/internal/circuit"
)

// Probe exposes the candidate-selection engine on a fully initialized but
// un-routed router, for benchmarks and profiling harnesses (see
// docs/PERF.md). It builds the complete routing state — feedthrough
// assignment, routing graphs, timing analysis, density profiles — without
// running any deletion phase, so repeated selection sweeps measure the
// engine itself rather than a moving routing state.
type Probe struct {
	r *router
}

// NewProbe validates the circuit and builds the router state exactly as
// Route does (newRouter), stopping before the first phase.
func NewProbe(ckt *circuit.Circuit, cfg Config) (*Probe, error) {
	r, err := newRouter(context.Background(), ckt, cfg)
	if err != nil {
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

// DPrimeSweep computes the tentative routed length d′ for every candidate
// edge of every net, as delay-criteria scoring does: one Dijkstra run per
// tentative-tree edge, the current length for any other edge. It returns
// the sum of the lengths so callers can sink the result.
func (p *Probe) DPrimeSweep() float64 {
	r := p.r
	var sum float64
	for n, cands := range r.nbList {
		for _, e := range cands {
			sum += r.dPrime(n, int(e))
		}
	}
	return sum
}
