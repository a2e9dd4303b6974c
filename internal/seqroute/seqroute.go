// Package seqroute registers the sequential, net-at-a-time global router
// — the class of timing-driven routers the paper positions itself against
// (Jackson/Kuh, Prasitjutrakul/Kubitz, Cong et al.; single-net routing
// under net-delay constraints) — as the "sequential" engine, the
// comparison baseline.
//
// The baseline is the per-net router of package steiner under a second
// name: nets route one after another in ascending static slack, each by
// the congestion-weighted shortest-path union (trunk edge cost =
// length · (1 + α·overflow)), and every committed tree's density is
// final. Earlier nets never see later nets' congestion and nothing is
// revisited — the fundamental weakness the paper's concurrent scheme
// removes.
package seqroute

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/steiner"
)

// Route runs the baseline: steiner.Route, reported as "sequential".
func Route(ctx context.Context, ckt *circuit.Circuit, cfg engine.Config) (*engine.Result, error) {
	res, err := steiner.Route(ctx, ckt, cfg)
	if err != nil {
		return nil, err
	}
	res.Engine = "sequential"
	return res, nil
}

// sequentialEngine adapts the baseline to the engine registry.
type sequentialEngine struct{}

func (sequentialEngine) Name() string { return "sequential" }

func (sequentialEngine) Route(ctx context.Context, ckt *circuit.Circuit, cfg engine.Config) (*engine.Result, error) {
	return Route(ctx, ckt, cfg)
}

func init() { engine.Register(sequentialEngine{}) }
