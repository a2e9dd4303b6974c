// Determinism tests for the concurrent engine: the routed result must be
// byte-identical run to run, on every data set, in both routing modes,
// also while other routes run at the same time (as the service's job
// workers route) and on the ECO path.
package repro_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/routedb"
)

// routedbJSON routes with the given config and renders the complete
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
// alone, then from two goroutines at once, and requires both concurrent
// routes to produce the alone route's routedb JSON. The two routes share
// the input circuit and run side by side, as the service's job workers
// do; under -race this checks that they write no state they share.
func TestParallelScoringDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset sweep in -short mode")
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
				cfg := core.Config{UseConstraints: use}
				want := routedbJSON(t, ckt, cfg)
				var results [2]*core.Result
				var errs [2]error
				var wg sync.WaitGroup
				for i := range results {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						results[i], errs[i] = core.Route(ckt, cfg)
					}(i)
				}
				wg.Wait()
				for i, res := range results {
					if errs[i] != nil {
						t.Fatalf("concurrent route %d: %v", i, errs[i])
					}
					if got := fingerprint(t, res); !bytes.Equal(got, want) {
						t.Fatalf("concurrent route %d routed differently from the route made alone (%d vs %d bytes)",
							i, len(got), len(want))
					}
				}
			})
		}
	}
}
