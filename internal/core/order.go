package core

import (
	"sort"

	"repro/internal/dgraph"
	"repro/internal/lowerbound"
)

// netOrder resolves the configured feedthrough-assignment net ordering
// of dg's circuit. nil means index order (feed.Assign's default).
func netOrder(dg *dgraph.Graph, cfg Config) []int {
	ckt := dg.Ckt
	switch cfg.Order {
	case OrderSlack:
		if !cfg.UseConstraints || len(ckt.Cons) == 0 {
			return nil
		}
		return dg.SlackOrder()
	case OrderHPWL:
		hp := lowerbound.NetHPWL(ckt)
		return orderByDesc(len(ckt.Nets), func(n int) float64 { return hp[n] })
	case OrderFanout:
		return orderByDesc(len(ckt.Nets), func(n int) float64 {
			return float64(len(ckt.Fanouts(n)))
		})
	}
	return nil
}

func orderByDesc(n int, key func(int) float64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return key(order[a]) > key(order[b]) })
	return order
}
