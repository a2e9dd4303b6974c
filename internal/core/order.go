package core

import (
	"repro/internal/dgraph"
	"repro/internal/engine"
)

// netOrder resolves the configured feedthrough-assignment net ordering
// of dg's circuit: the paper's ascending static slack when Order is
// OrderSlack, constraints are on and the circuit has some. nil means
// index order (feed.Assign's default).
func netOrder(dg *dgraph.Graph, cfg engine.Config) []int {
	if cfg.Order != engine.OrderSlack || !cfg.UseConstraints || len(dg.Ckt.Cons) == 0 {
		return nil
	}
	return dg.SlackOrder()
}
