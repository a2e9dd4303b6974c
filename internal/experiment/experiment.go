// Package experiment drives the paper's evaluation (§5): it generates the
// five data sets, routes each with and without constraints, runs channel
// routing, and evaluates the final delays — producing the rows of Tables
// 1-3 and the headline statistics. Evaluate is that measurement for any
// engine's finished route; the commands and the service call it too.
package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/lowerbound"

	// Register the per-net engines for RunCircuit; core, imported above,
	// registers the default.
	_ "repro/internal/seqroute"
	_ "repro/internal/steiner"
)

// Run is the outcome of one routing run (one Table 2 row half).
type Run struct {
	DelayPs     float64 // worst constrained-path delay after channel routing
	EstimatedPs float64 // the router's own estimate (tentative trees)
	AreaMm2     float64
	LengthMm    float64
	CPUSec      float64 // route, channel routing and final timing
	Violations  int
	Tracks      int
	AddedCols   int
}

// Row is one data set's complete evaluation.
type Row struct {
	Name         string
	Cells, Nets  int
	Cons         int
	LowerBoundPs float64
	Con, Unc     Run
}

// DiffPct returns (delay - lower bound) / lower bound in percent for the
// constrained and unconstrained runs (Table 3).
func (r *Row) DiffPct() (con, unc float64) {
	return (r.Con.DelayPs - r.LowerBoundPs) / r.LowerBoundPs * 100,
		(r.Unc.DelayPs - r.LowerBoundPs) / r.LowerBoundPs * 100
}

// ImprovementPct is the paper's headline metric: the delay reduction as a
// percentage of the lower bound.
func (r *Row) ImprovementPct() float64 {
	return (r.Unc.DelayPs - r.Con.DelayPs) / r.LowerBoundPs * 100
}

// DelayImprovementPct is the relative delay reduction (of the
// unconstrained delay), the paper's "improvement in constrained data"
// range.
func (r *Row) DelayImprovementPct() float64 {
	return (r.Unc.DelayPs - r.Con.DelayPs) / r.Unc.DelayPs * 100
}

// RunCircuit routes a circuit with the named engine ("" is the default,
// the paper's concurrent router) and evaluates it end to end. CPUSec
// covers the route, channel routing and the final timing analysis.
func RunCircuit(ckt *circuit.Circuit, eng string, cfg engine.Config) (Run, error) {
	start := time.Now()
	res, err := engine.Route(context.Background(), eng, ckt, cfg)
	if err != nil {
		return Run{}, err
	}
	ev, err := Evaluate(res)
	if err != nil {
		return Run{}, err
	}
	return Run{
		DelayPs:     ev.DelayPs,
		EstimatedPs: res.Delay,
		AreaMm2:     ev.Channels.AreaMm2,
		LengthMm:    ev.Channels.TotalLenUm / 1000,
		CPUSec:      time.Since(start).Seconds(),
		Violations:  ev.Violations,
		Tracks:      res.Dens.TotalTracks(),
		AddedCols:   res.AddedPitches,
	}, nil
}

// Eval is the paper's measurement of one finished routing (§5): delays
// "from routing lengths after channel routing".
type Eval struct {
	Channels   *chanroute.Result
	Timing     *dgraph.Timing // lumped analysis over Channels.NetLenUm
	DelayPs    float64        // worst constrained-path delay
	Violations int
}

// Evaluate channel-routes a finished routing and analyzes its
// constraints over the channel-routed net lengths. The analysis runs on
// the route's own delay graph, which every engine points at res.Ckt.
func Evaluate(res *engine.Result) (*Eval, error) {
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		return nil, err
	}
	tm := analyze(res.Timing.G, cr.NetLenUm)
	ev := &Eval{Channels: cr, Timing: tm}
	ev.DelayPs, ev.Violations = tm.Worst()
	return ev, nil
}

// FinalDelay evaluates the constraints with post-channel-routing lengths
// (the paper's measurement) and counts violations: Evaluate's analysis,
// for callers that ran channel routing themselves.
func FinalDelay(ckt *circuit.Circuit, netLenUm []float64) (worst float64, violations int, err error) {
	dg, err := dgraph.New(ckt)
	if err != nil {
		return 0, 0, err
	}
	worst, violations = analyze(dg, netLenUm).Worst()
	return worst, violations, nil
}

// analyze runs the lumped analysis over the given net lengths.
func analyze(g *dgraph.Graph, netLenUm []float64) *dgraph.Timing {
	tm := g.NewTiming()
	tm.SetLumped(netLenUm)
	tm.Analyze()
	return tm
}

// RunDataset evaluates one named data set (e.g. "C1P1") in both modes.
func RunDataset(name string, base core.Config) (*Row, error) {
	p, err := gen.Dataset(name)
	if err != nil {
		return nil, err
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		return nil, err
	}
	return RunGenerated(name, ckt, base)
}

// RunGenerated evaluates an already generated circuit in both modes.
func RunGenerated(name string, ckt *circuit.Circuit, base core.Config) (*Row, error) {
	row := &Row{Name: name, Cells: logicCells(ckt), Nets: len(ckt.Nets), Cons: len(ckt.Cons)}
	_, lb, err := lowerbound.Delay(ckt)
	if err != nil {
		return nil, err
	}
	row.LowerBoundPs = lb
	conCfg := base
	conCfg.UseConstraints = true
	if row.Con, err = RunCircuit(ckt, engine.DefaultName, conCfg); err != nil {
		return nil, fmt.Errorf("%s constrained: %w", name, err)
	}
	uncCfg := base
	uncCfg.UseConstraints = false
	if row.Unc, err = RunCircuit(ckt, engine.DefaultName, uncCfg); err != nil {
		return nil, fmt.Errorf("%s unconstrained: %w", name, err)
	}
	return row, nil
}

func logicCells(ckt *circuit.Circuit) int {
	n := 0
	for i := range ckt.Cells {
		if !ckt.IsFeedCell(i) {
			n++
		}
	}
	return n
}

// RunAll evaluates the paper's five data sets.
func RunAll(base core.Config) ([]*Row, error) {
	var rows []*Row
	for _, name := range gen.DatasetNames() {
		row, err := RunDataset(name, base)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Headline aggregates the paper's summary statistics over the rows:
// the average delay reduction as % of lower bound (paper: 17.6%), the
// min/max relative improvement (paper: 0.56%-23.5%), and the average
// constrained difference from the lower bound (paper: <10%).
type Headline struct {
	AvgReductionOfLB   float64
	MinImprovementPct  float64
	MaxImprovementPct  float64
	AvgConDiffFromLB   float64
	AvgUncDiffFromLB   float64
	AreaChangeAvgPct   float64 // constrained vs unconstrained area
	HalfOrTenSatisfied int     // rows with con diff < 10% or < half the unc diff
}

// Summarize computes the headline statistics.
func Summarize(rows []*Row) Headline {
	var h Headline
	h.MinImprovementPct = math.Inf(1)
	h.MaxImprovementPct = math.Inf(-1)
	for _, r := range rows {
		h.AvgReductionOfLB += r.ImprovementPct()
		imp := r.DelayImprovementPct()
		h.MinImprovementPct = math.Min(h.MinImprovementPct, imp)
		h.MaxImprovementPct = math.Max(h.MaxImprovementPct, imp)
		con, unc := r.DiffPct()
		h.AvgConDiffFromLB += con
		h.AvgUncDiffFromLB += unc
		h.AreaChangeAvgPct += (r.Con.AreaMm2 - r.Unc.AreaMm2) / r.Unc.AreaMm2 * 100
		if con < 10 || con < unc/2 {
			h.HalfOrTenSatisfied++
		}
	}
	n := float64(len(rows))
	if n > 0 {
		h.AvgReductionOfLB /= n
		h.AvgConDiffFromLB /= n
		h.AvgUncDiffFromLB /= n
		h.AreaChangeAvgPct /= n
	}
	return h
}
