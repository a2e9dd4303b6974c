package engine

import (
	"time"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/dgraph"
	"repro/internal/grid"
	"repro/internal/rgraph"
)

// DelayModel selects how net delays are derived from routed trees.
type DelayModel int

const (
	// Lumped is the paper's capacitance model: every sink of a net sees
	// (Σ Fin)·Tf + CL·Td with CL from the total tree length.
	Lumped DelayModel = iota
	// Elmore is the §2.1 RC extension: per-sink Elmore delays over the
	// tentative tree plus the lumped driver terms.
	Elmore
)

// OrderStrategy selects the net order for feedthrough assignment (§3.1).
type OrderStrategy int

const (
	// OrderSlack is the paper's ascending static slack.
	OrderSlack OrderStrategy = iota
	// OrderIndex takes nets in index order.
	OrderIndex
)

func (s OrderStrategy) String() string {
	switch s {
	case OrderSlack:
		return "slack"
	case OrderIndex:
		return "index"
	}
	return "?"
}

// Config is the one engine configuration: the knobs the service and the
// commands expose per job, and the ablation switches of DESIGN.md §5.
// Every engine reads the subset it understands and ignores the rest (each
// field documents who honors it).
type Config struct {
	// UseConstraints enables the timing criteria (all engines). With it
	// false the run is the area-driven baseline; delays are still
	// reported.
	UseConstraints bool

	// DelayModel picks Lumped (default, the paper) or Elmore
	// (concurrent engine only; the others use the lumped model).
	DelayModel DelayModel
	// RPerUm is the wire resistance in kΩ/µm for the Elmore model.
	RPerUm float64

	// AreaFirst promotes the density criteria in every phase
	// (concurrent engine only; ablation A1).
	AreaFirst bool
	// SkipImprovement disables the improvement phases, Fig. 2 lines
	// 08-10 (concurrent engine only; ablation A5). Each phase makes at
	// most three rip-up-and-reroute passes. The per-net engines have no
	// improvement phase.
	SkipImprovement bool

	// Order picks the feedthrough-assignment net ordering (concurrent
	// engine; the zero value is the paper's ascending static slack, which
	// degrades to index order when constraints are off or absent;
	// OrderIndex is ablation A3).
	Order OrderStrategy
	// NoFeedReroute disables feedthrough re-assignment during rip-up
	// (concurrent engine only; ablation A6). By default a net whose plain
	// reroute is rejected is retried once with its feedthroughs moved to
	// the free slots nearest its terminal center.
	NoFeedReroute bool

	// Workers is ignored: every engine routes on the calling goroutine.
	//
	// Deprecated: ignored; kept so existing callers still compile.
	Workers int

	// Progress, when non-nil, receives Progress snapshots (every
	// engine): one at each phase start, one per step (edge deletion,
	// reroute attempt or routed net), and one with Done set when the
	// phase finishes. It is called synchronously from the routing
	// goroutine, so it must be fast and must not call back into the
	// engine.
	Progress func(Progress)
}

// Progress is a point-in-time snapshot of a running phase, delivered to
// Config.Progress. Counters are cumulative within the named phase.
type Progress struct {
	// Phase is the engine's phase name (the concurrent engine uses the
	// Fig. 2 names "initial", "recover-violations", "improve-delay",
	// "improve-area"; sequential and steiner, one per-net router with no
	// improvement phase, use "build" alone).
	Phase     string
	Deletions int
	Reroutes  int
	Accepted  int
	// Violations is the number of constraints currently violated.
	Violations int
	// Done marks the phase-completion event.
	Done bool
}

// PhaseStat records one routing phase for tracing and experiments.
type PhaseStat struct {
	Name      string
	Deletions int
	// ByKind counts deletions per edge kind, indexed by rgraph.EKind
	// (corr, branch, trunk, feed).
	ByKind   [4]int
	Reroutes int
	Accepted int
	Duration time.Duration
	// SelectDuration is the part of Duration spent inside selectEdge —
	// candidate scoring plus the cross-net argmin.
	SelectDuration time.Duration
	// SelectCalls counts selectEdge invocations in the phase.
	SelectCalls int
	// ScoredNets counts nets whose candidate ranking had to be recomputed
	// (cache miss); ReusedNets counts nets served from the per-net cache.
	// Their ratio is the effectiveness of the incremental engine.
	ScoredNets int
	ReusedNets int
	// TimingDuration is the part of Duration spent inside Timing.Flush —
	// the incremental re-analysis of constraints dirtied by rerouted nets.
	TimingDuration time.Duration
	// TimingFlushes counts Flush calls; TimingCons sums the constraints
	// each flush actually re-analyzed (the dirty-set sizes).
	TimingFlushes int
	TimingCons    int
}

// Result is a finished global routing, the shape every engine produces.
// Downstream consumers (chanroute, routedb, render, verify, the service
// payload builder) work on it without knowing which engine routed it.
type Result struct {
	// Engine names the engine that produced this result ("" from direct
	// calls into an algorithm package; always set via Engine.Route).
	Engine string
	// Ckt is the routed circuit; when feed cells were inserted it is a
	// widened copy of the input (AddedPitches > 0).
	Ckt *circuit.Circuit
	Geo *grid.Geometry
	// Feeds per net, as assigned.
	Feeds [][]rgraph.FeedPos
	// Graphs hold the final interconnection trees (IsTree() holds).
	Graphs []*rgraph.Graph
	// WirelenUm is the estimated routed length per net, µm.
	WirelenUm []float64
	// TotalWirelenUm sums WirelenUm.
	TotalWirelenUm float64
	// Timing is the final analysis (constraints evaluated even for
	// unconstrained runs).
	Timing *dgraph.Timing
	// Delay is the worst constrained-path delay, ps (0 if no constraints).
	Delay float64
	// Dens is the final channel-density state.
	Dens *density.State
	// AddedPitches is the §4.3 chip widening, columns.
	AddedPitches int
	// Phases traces the run, one entry per engine phase.
	Phases []PhaseStat
	// Duration is the total wall-clock time of the run, including
	// feedthrough assignment and setup (not just the phase loop).
	Duration time.Duration
}

// Margin returns the final margin of constraint p.
func (res *Result) Margin(p int) float64 { return res.Timing.Cons[p].Margin }

// Violations counts constraints with negative margin.
func (res *Result) Violations() int {
	_, v := res.Timing.Worst()
	return v
}
