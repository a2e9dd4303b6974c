package core

import (
	"testing"

	"repro/internal/engine"
)

// BenchmarkSelectEdge measures one full §3.4 candidate-selection sweep
// on a router built as Route builds it (newRouter), before any phase
// runs: cold (every net rescored) and warm (every score served from the
// incremental per-net cache).
func BenchmarkSelectEdge(b *testing.B) {
	for _, name := range []string{"C1P1", "C3P1"} {
		ckt := genDataset(b, name)
		b.Run(name+"/cold", func(b *testing.B) {
			r := newTestRouter(b, ckt, engine.Config{UseConstraints: true})
			cold := func() {
				for n := range r.graphs {
					r.touchNet(n)
				}
				if _, ok := r.selectEdge(nil, false); !ok {
					b.Fatal("no candidate")
				}
			}
			// Warm one cold sweep: the per-net criteria caches are lazily
			// sized on first touch, and measuring that one-time growth
			// would misreport the steady state.
			cold()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cold()
			}
		})
		b.Run(name+"/warm", func(b *testing.B) {
			r := newTestRouter(b, ckt, engine.Config{UseConstraints: true})
			r.selectEdge(nil, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := r.selectEdge(nil, false); !ok {
					b.Fatal("no candidate")
				}
			}
		})
	}
}

// BenchmarkDPrime measures d′ over every candidate edge of every net as
// delay-criteria scoring computes it: one tentative-length Dijkstra run
// per tentative-tree edge, the current length for any other edge.
func BenchmarkDPrime(b *testing.B) {
	for _, name := range []string{"C1P1", "C3P1"} {
		ckt := genDataset(b, name)
		b.Run(name, func(b *testing.B) {
			r := newTestRouter(b, ckt, engine.Config{UseConstraints: true})
			sweep := func() float64 {
				var sum float64
				for n, cands := range r.nbList {
					for _, e := range cands {
						sum += r.dPrime(n, int(e))
					}
				}
				return sum
			}
			sweep() // size every graph's Dijkstra workspace
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += sweep()
			}
			_ = sink
		})
	}
}
