// Cross-engine conformance suite: every registered engine must produce a
// valid routing database, be byte-deterministic for every worker count,
// and (when it claims the Progress capability) report monotone progress
// ending in a Done event. New engines get this coverage by being blank-
// imported below — the tests iterate engine.Names().
package engine_test

import (
	"bytes"
	"context"
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
// databases for every worker count, on every engine. Engines without
// internal parallelism must ignore Workers entirely; the concurrent
// engine's candidate scoring must not leak scheduling into the result.
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

// TestWorkerCapabilityTruth pins the Capabilities.Workers contract:
// engines claiming it must (per TestConformanceWorkerDeterminism) honor
// the knob without changing bytes; engines not claiming it must clamp —
// routing with workers=8 must byte-match workers=1, and the steiner
// engine (which is congestion-sequential by construction) must surface
// the clamp as a trace note rather than silently ignoring the request.
func TestWorkerCapabilityTruth(t *testing.T) {
	ckt := loadDataset(t, gen.DatasetNames()[0])
	for _, eng := range engine.Names() {
		e, ok := engine.Get(eng)
		if !ok {
			t.Fatalf("engine %q not registered", eng)
		}
		if e.Capabilities().Workers {
			continue
		}
		t.Run(eng, func(t *testing.T) {
			one := routeDB(t, eng, ckt, engine.Config{UseConstraints: true, Workers: 1})
			eight := routeDB(t, eng, ckt, engine.Config{UseConstraints: true, Workers: 8})
			if !bytes.Equal(one, eight) {
				t.Fatalf("engine without Workers capability routed differently at workers=8 (%d vs %d bytes)",
					len(eight), len(one))
			}
		})
	}

	t.Run("steiner-clamp-note", func(t *testing.T) {
		var trace bytes.Buffer
		cfg := engine.Config{UseConstraints: true, Workers: 8, Trace: &trace}
		if _, err := engine.Route(context.Background(), "steiner", ckt, cfg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(trace.Bytes(), []byte("workers=8 clamped to 1")) {
			t.Fatalf("steiner trace missing the worker-clamp note:\n%s", trace.String())
		}
	})
}

// TestConformanceProgress checks the Progress contract on engines that
// claim the capability: at least one snapshot arrives, cumulative
// counters never decrease within a phase, and the final event has Done
// set.
func TestConformanceProgress(t *testing.T) {
	ckt := loadDataset(t, gen.DatasetNames()[0])
	for _, eng := range engine.Names() {
		e, ok := engine.Get(eng)
		if !ok {
			t.Fatalf("engine %q not registered", eng)
		}
		if !e.Capabilities().Progress {
			continue
		}
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
