package core

import (
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
)

// TestWorkersConfigIdenticalResult checks, on the in-package sample
// circuits, that routing fresh copies of a circuit again and again
// reproduces the first route exactly (the dataset sweep lives in the
// repo-root determinism test).
func TestWorkersConfigIdenticalResult(t *testing.T) {
	for _, mk := range []func() *circuit.Circuit{circuit.SampleSmall, circuit.SampleDiff} {
		ckt := mk()
		base, err := Route(ckt, engine.Config{UseConstraints: true})
		if err != nil {
			t.Fatal(err)
		}
		for run := 1; run <= 3; run++ {
			res, err := Route(mk(), engine.Config{UseConstraints: true})
			if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			if res.Delay != base.Delay || res.TotalWirelenUm != base.TotalWirelenUm {
				t.Fatalf("run %d diverged: delay %v vs %v, wirelen %v vs %v",
					run, res.Delay, base.Delay, res.TotalWirelenUm, base.TotalWirelenUm)
			}
			for n := range base.Graphs {
				a, b := base.Graphs[n].AliveEdges(), res.Graphs[n].AliveEdges()
				if len(a) != len(b) {
					t.Fatalf("run %d net %d: %d alive edges vs %d", run, n, len(b), len(a))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("run %d net %d: edge sets differ", run, n)
					}
				}
			}
		}
	}
}

// TestConcurrentScoringStress runs several full routings concurrently, as
// the service's job workers do, so the race detector sees any state the
// routers share (package-level variables, sample circuits) from many
// angles.
func TestConcurrentScoringStress(t *testing.T) {
	const runs = 6
	var wg sync.WaitGroup
	errs := make(chan error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ckt := circuit.SampleSmall()
			if i%2 == 1 {
				ckt = circuit.SampleDiff()
			}
			if _, err := Route(ckt, engine.Config{UseConstraints: true}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
