package core

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/engine"
)

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
