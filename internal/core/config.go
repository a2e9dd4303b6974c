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

import "repro/internal/engine"

// The configuration, delay-model and ordering types are shared by every
// routing engine and live in internal/engine; the aliases keep this
// package's historical API (core.Config literals, core.Result consumers)
// source-compatible.

// Config controls a routing run; the concurrent engine honors every
// field of engine.Config but the deprecated Workers.
type Config = engine.Config

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

// maxPasses resolves Config.MaxPasses: 0 means the default of 3 sweeps
// per improvement phase.
func maxPasses(cfg Config) int {
	if cfg.MaxPasses <= 0 {
		return 3
	}
	return cfg.MaxPasses
}
