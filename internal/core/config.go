// Package core implements the timing- and area-driven global router of
// Harada & Kitazawa, "A Global Router Optimizing Timing and Area for
// High-Speed Bipolar LSI's" (DAC 1994).
//
// The router follows the paper's Fig. 2 outline:
//
//	01  external-terminal & feedthrough assignment      (package feed)
//	02  routing-graph initialization Gr(n)              (package rgraph)
//	03  delay-constraint-graph initialization Gd(P)     (package dgraph)
//	04-07  initial routing: concurrent edge deletion with the §3.4
//	       heuristics over delay criteria (Cd, Gl, LD from the local
//	       margin LM) and channel-density criteria (C_m, NC_m, C_M, NC_M)
//	08  constraint-violation recovery (rip-up & reroute)
//	09  delay-improvement loop
//	10  area-improvement loop (density criteria promoted)
//
// Bipolar-specific features (§4): differential pairs are deleted in
// lock-step on isomorphic graphs, multi-pitch nets carry pitch-weighted
// density and occupy adjacent feedthrough slots, and feed-cell insertion
// widens the chip when feedthroughs run out.
package core

import (
	"io"

	"repro/internal/engine"
)

// The delay-model, ordering, progress, phase-stat and result types are
// shared by every routing engine and live in internal/engine; the aliases
// keep this package's historical API (core.Config literals, core.Result
// consumers) source-compatible.

// DelayModel selects how net delays are derived from routed trees.
type DelayModel = engine.DelayModel

const (
	// Lumped is the paper's capacitance model: every sink of a net sees
	// (Σ Fin)·Tf + CL·Td with CL from the total tree length.
	Lumped = engine.Lumped
	// Elmore is the §2.1 RC extension: per-sink Elmore delays over the
	// tentative tree plus the lumped driver terms.
	Elmore = engine.Elmore
)

// Config controls a routing run.
type Config struct {
	// UseConstraints enables the timing criteria. With it false the
	// router is the paper's "without constraints" baseline: pure
	// area-driven edge selection (delays are still reported).
	UseConstraints bool

	// DelayModel picks Lumped (default, the paper) or Elmore.
	DelayModel DelayModel
	// RPerUm is the wire resistance in kΩ/µm for the Elmore model.
	RPerUm float64

	// AreaFirst makes every phase use the area-phase criteria ordering
	// (density before Gl/LD). The paper uses it only in phase 10; this is
	// ablation A1.
	AreaFirst bool

	// SkipImprovement disables phases 08-10 (ablation A5).
	SkipImprovement bool
	// MaxPasses bounds each improvement phase's sweeps. 0 means the
	// default of 3.
	MaxPasses int

	// NoTentativeCache disables the d'(e) shortcut that reuses the
	// current length for edges outside the tentative tree (ablation A2;
	// the shortcut is exact, so results must not change).
	NoTentativeCache bool

	// ArbitraryNetOrder skips the static-slack ordering for feedthrough
	// assignment and uses net index order (ablation A3). Equivalent to
	// Order = OrderIndex.
	ArbitraryNetOrder bool

	// Order picks the feedthrough-assignment net ordering. The zero value
	// is the paper's ascending static slack (which degrades to index
	// order when constraints are off or absent).
	Order OrderStrategy

	// NoFeedReroute disables feedthrough re-assignment during the rip-up
	// and reroute phases (ablation A6). By default a net whose plain
	// reroute is rejected is retried once with its feedthroughs moved to
	// the free slots nearest its terminal center.
	NoFeedReroute bool

	// Workers bounds the worker pool that re-scores invalidated nets
	// during edge selection. 0 means one worker per available CPU; 1 runs
	// fully sequentially. The routed result is identical for every value —
	// scoring units are data-disjoint and the cross-net argmin is always
	// sequential — so this only trades wall-clock for cores.
	Workers int

	// Trace, when non-nil, receives a phase-by-phase log (Fig. 2 trace).
	Trace io.Writer

	// Progress, when non-nil, receives Progress snapshots: one at each
	// phase start, one after every edge deletion (initial routing) or
	// reroute attempt (improvement phases), and one with Done set when the
	// phase finishes. It is called synchronously from the routing
	// goroutine, so it must be fast and must not call back into the
	// router. Combined with RouteCtx it lets a caller observe and abort a
	// run mid-flight.
	Progress func(Progress)
}

// OrderStrategy selects the net order for feedthrough assignment (§3.1).
type OrderStrategy = engine.OrderStrategy

const (
	// OrderSlack is the paper's ascending static slack.
	OrderSlack = engine.OrderSlack
	// OrderIndex takes nets in index order.
	OrderIndex = engine.OrderIndex
	// OrderHPWL assigns the longest half-perimeter nets first.
	OrderHPWL = engine.OrderHPWL
	// OrderFanout assigns the highest-fanout nets first.
	OrderFanout = engine.OrderFanout
)

func (c Config) maxPasses() int {
	if c.MaxPasses <= 0 {
		return 3
	}
	return c.MaxPasses
}
