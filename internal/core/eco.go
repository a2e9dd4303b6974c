package core

import (
	"fmt"

	"repro/internal/dgraph"
	"repro/internal/engine"
	"repro/internal/rgraph"
)

// ReOptimize resumes the §3.5 rip-up-and-reroute phases on a finished
// routing — the ECO path: edit constraint limits (or just ask for another
// improvement round) and re-optimize without re-running feedthrough
// assignment or the initial concurrent routing. prev is left untouched;
// the returned Result owns cloned graphs.
//
// The phases are Route's, run as eco-recover, eco-delay and eco-area.
// cfg.SkipImprovement is ignored (re-optimization *is* the improvement);
// the feedthrough assignment and chip widening are inherited from prev.
func ReOptimize(prev *engine.Result, cfg engine.Config) (*engine.Result, error) {
	if err := prev.Ckt.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	r := &router{cfg: cfg, ckt: prev.Ckt, geo: prev.Geo, addedPitches: prev.AddedPitches}
	nNets := len(r.ckt.Nets)
	if len(prev.Graphs) != nNets || len(prev.Feeds) != nNets {
		return nil, fmt.Errorf("core: previous result does not match the circuit")
	}
	var err error
	if r.dg, err = dgraph.New(r.ckt); err != nil {
		return nil, err
	}
	r.feeds = make([][]rgraph.FeedPos, nNets)
	graphs := make([]*rgraph.Graph, nNets)
	for n := 0; n < nNets; n++ {
		r.feeds[n] = append([]rgraph.FeedPos(nil), prev.Feeds[n]...)
		graphs[n] = prev.Graphs[n].Clone()
	}
	if err := r.initState(graphs); err != nil {
		return nil, err
	}

	if err := r.improve(ecoPhases); err != nil {
		return nil, err
	}
	return r.result()
}
