// Cross-engine conformance suite: every registered engine must produce a
// valid routing database, be byte-deterministic whatever the deprecated
// Workers field says, report monotone progress ending in a Done event,
// and stop with context.Canceled when its context is cancelled. New
// engines get this coverage by being blank-imported below — the tests
// iterate engine.Names().
package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/routedb"

	_ "repro/internal/core"
	_ "repro/internal/seqroute"
	_ "repro/internal/steiner"
)

func loadDataset(t *testing.T, name string) *circuit.Circuit {
	t.Helper()
	p, err := gen.Dataset(name)
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

// routeDB routes ckt with the named engine and renders the complete
// routing database — the strictest byte-level fingerprint of a run.
func routeDB(t *testing.T, name string, ckt *circuit.Circuit, cfg engine.Config) []byte {
	t.Helper()
	res, err := engine.Route(context.Background(), name, ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != name {
		t.Fatalf("Result.Engine = %q, want %q", res.Engine, name)
	}
	// The one delay graph built on the input must refer to the routed,
	// possibly feed-widened, circuit by the time the result is returned.
	if res.Timing.G.Ckt != res.Ckt {
		t.Fatal("Result.Timing's delay graph refers to another circuit than Result.Ckt")
	}
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	db, err := routedb.Build(res, cr)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("routedb invalid: %v", err)
	}
	out, err := routedb.Marshal(db)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestConformanceValidity routes every data set with every registered
// engine in both modes and requires a valid routing database each time.
func TestConformanceValidity(t *testing.T) {
	names := gen.DatasetNames()
	if testing.Short() {
		names = names[:1]
	}
	for _, ds := range names {
		ckt := loadDataset(t, ds)
		for _, eng := range engine.Names() {
			for _, use := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/constraints=%v", ds, eng, use), func(t *testing.T) {
					routeDB(t, eng, ckt, engine.Config{UseConstraints: use})
				})
			}
		}
	}
}

// TestConformanceWorkerDeterminism requires byte-identical routing
// databases for every value of the deprecated Workers field, on every
// engine: every engine routes on one goroutine and must ignore it.
func TestConformanceWorkerDeterminism(t *testing.T) {
	ckt := loadDataset(t, gen.DatasetNames()[0])
	for _, eng := range engine.Names() {
		t.Run(eng, func(t *testing.T) {
			var want []byte
			for _, w := range []int{1, 2, 4} {
				got := routeDB(t, eng, ckt, engine.Config{UseConstraints: true, Workers: w})
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d routed differently from workers=1 (%d vs %d bytes)",
						w, len(got), len(want))
				}
			}
		})
	}
}

// TestWorkerCapabilityTruth pins that the deprecated Config.Workers
// field cannot leak into routing: on every engine, workers=8 must route
// byte-identical to workers=1.
func TestWorkerCapabilityTruth(t *testing.T) {
	ckt := loadDataset(t, gen.DatasetNames()[0])
	for _, eng := range engine.Names() {
		t.Run(eng, func(t *testing.T) {
			one := routeDB(t, eng, ckt, engine.Config{UseConstraints: true, Workers: 1})
			eight := routeDB(t, eng, ckt, engine.Config{UseConstraints: true, Workers: 8})
			if !bytes.Equal(one, eight) {
				t.Fatalf("workers=8 routed differently from workers=1 (%d vs %d bytes)",
					len(eight), len(one))
			}
		})
	}
}

// TestConformanceProgress checks the Progress contract on every engine:
// at least one snapshot arrives, cumulative counters never decrease
// within a phase, and the final event has Done set.
func TestConformanceProgress(t *testing.T) {
	ckt := loadDataset(t, gen.DatasetNames()[0])
	for _, eng := range engine.Names() {
		t.Run(eng, func(t *testing.T) {
			var got []engine.Progress
			cfg := engine.Config{
				UseConstraints: true,
				Progress:       func(p engine.Progress) { got = append(got, p) },
			}
			if _, err := engine.Route(context.Background(), eng, ckt, cfg); err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 {
				t.Fatal("no progress snapshots delivered")
			}
			last := make(map[string]engine.Progress)
			for i, p := range got {
				if p.Phase == "" {
					t.Fatalf("snapshot %d has empty phase", i)
				}
				if prev, ok := last[p.Phase]; ok {
					if p.Deletions < prev.Deletions || p.Reroutes < prev.Reroutes || p.Accepted < prev.Accepted {
						t.Fatalf("snapshot %d: counters went backwards in phase %q: %+v after %+v",
							i, p.Phase, p, prev)
					}
				}
				last[p.Phase] = p
			}
			if !got[len(got)-1].Done {
				t.Fatalf("final snapshot not Done: %+v", got[len(got)-1])
			}
		})
	}
}

// TestConformanceCancel checks the cancellation contract on every
// engine: a route started on an already-cancelled context, and a route
// cancelled from inside its third Progress event, both return a nil
// Result and an error wrapping context.Canceled.
func TestConformanceCancel(t *testing.T) {
	ckt := loadDataset(t, gen.DatasetNames()[0])
	for _, eng := range engine.Names() {
		t.Run(eng, func(t *testing.T) {
			t.Run("pre-cancelled", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				res, err := engine.Route(ctx, eng, ckt, engine.Config{UseConstraints: true})
				checkCancelled(t, res, err)
			})
			t.Run("third-progress", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				events := 0
				cfg := engine.Config{
					UseConstraints: true,
					Progress: func(engine.Progress) {
						if events++; events == 3 {
							cancel()
						}
					},
				}
				res, err := engine.Route(ctx, eng, ckt, cfg)
				if events < 3 {
					t.Fatalf("only %d progress events before the route returned", events)
				}
				checkCancelled(t, res, err)
			})
		})
	}
}

func checkCancelled(t *testing.T, res *engine.Result, err error) {
	t.Helper()
	if res != nil {
		t.Fatal("cancelled route returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want one wrapping context.Canceled", err)
	}
}
