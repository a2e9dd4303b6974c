package core

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/engine"
)

// The progress, phase-stat and result types are shared by every routing
// engine; the canonical definitions live in internal/engine and are
// aliased here so historical consumers of core keep compiling unchanged.

// Progress is a point-in-time snapshot of a running phase, delivered to
// Config.Progress.
type Progress = engine.Progress

// PhaseStat records one Fig. 2 phase for tracing and experiments.
type PhaseStat = engine.PhaseStat

// Result is a finished global routing.
type Result = engine.Result

// concurrentEngine adapts this package to the engine registry under the
// default name. The adapter is a stateless value; all run state lives in
// the per-call router.
type concurrentEngine struct{}

func (concurrentEngine) Name() string { return engine.DefaultName }

func (concurrentEngine) Route(ctx context.Context, ckt *circuit.Circuit, cfg engine.Config) (*engine.Result, error) {
	res, err := RouteCtx(ctx, ckt, cfg)
	if err != nil {
		return nil, err
	}
	res.Engine = engine.DefaultName
	return res, nil
}

func init() { engine.Register(concurrentEngine{}) }
