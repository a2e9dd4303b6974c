// Determinism tests for the parallel candidate-scoring engine: the routed
// result must be byte-identical for every worker count, on every data set,
// in both routing modes. The engine's only nondeterminism risk is the
// cross-net argmin, which is computed sequentially from cached per-net
// keys precisely so that worker scheduling cannot leak into the result.
package repro_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/routedb"
)

// routedbJSON routes with the given worker count and renders the complete
// routing database, the strictest byte-level fingerprint of a run.
func routedbJSON(t *testing.T, ckt *circuit.Circuit, cfg core.Config) []byte {
	t.Helper()
	res, err := core.Route(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	db, err := routedb.Build(res, cr)
	if err != nil {
		t.Fatal(err)
	}
	out, err := routedb.Marshal(db)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fingerprint renders a finished result's complete routing database, the
// strictest byte-level fingerprint of a routing state.
func fingerprint(t *testing.T, res *core.Result) []byte {
	t.Helper()
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	db, err := routedb.Build(res, cr)
	if err != nil {
		t.Fatal(err)
	}
	out, err := routedb.Marshal(db)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReOptimizeDeterministic exercises the ECO path: route once, then
// re-optimize the same result with every worker-pool size and require
// byte-identical routedb JSON. This covers the rip-up-and-reroute
// save/restore sweeps (tryReroute, reallocFeeds), which run far more often
// under ReOptimize than during a fresh route.
func TestReOptimizeDeterministic(t *testing.T) {
	p, err := gen.Dataset(gen.DatasetNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Route(ckt, core.Config{UseConstraints: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		res, err := core.ReOptimize(base, core.Config{UseConstraints: true, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprint(t, res)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ReOptimize with workers=%d differs from workers=1 (%d vs %d bytes)",
				w, len(got), len(want))
		}
	}
}

// TestParallelScoringDeterministic routes every data set in both modes
// with the sequential scorer (Workers=1) and with parallel worker pools,
// and requires byte-identical routedb JSON. The pools always include 8,
// so the many-worker case is covered even on a machine with few CPUs.
func TestParallelScoringDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset sweep in -short mode")
	}
	pools := []int{2, 8}
	if n := runtime.GOMAXPROCS(0); n != 2 && n != 8 {
		pools = append(pools, n)
	}
	for _, name := range gen.DatasetNames() {
		p, err := gen.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		ckt, err := gen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, use := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/constraints=%v", name, use), func(t *testing.T) {
				want := routedbJSON(t, ckt, core.Config{UseConstraints: use, Workers: 1})
				for _, w := range pools {
					got := routedbJSON(t, ckt, core.Config{UseConstraints: use, Workers: w})
					if !bytes.Equal(got, want) {
						t.Fatalf("workers=%d routed differently from workers=1 (%d vs %d bytes)",
							w, len(got), len(want))
					}
				}
			})
		}
	}
}
