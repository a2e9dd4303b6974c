// Race and aliasing stress for the reused-workspace routing engine. The
// zero-allocation hot path leans on reused scratch buffers (per-router
// and per-graph workspaces, recycled trees), so the two failure modes
// worth a dedicated regression are (1) concurrent routes racing on state
// they share, such as the input circuit, and (2) a later route mutating
// an earlier route's still-live result through a leaked backing array.
// Run with -race to arm the first check.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/service"
)

// stressCircuit generates the smallest data set once per test.
func stressCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	p, err := gen.Dataset(gen.DatasetNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

// TestConcurrentWorkerCountsIdentical routes the same circuit from four
// goroutines at once and requires every run to produce byte-identical
// routedb JSON. Concurrent routers share the input circuit, so under
// -race this doubles as the data-race detector for any write to shared
// state. The routes run concurrently; fingerprinting happens after the
// join so no goroutine touches testing.T.
func TestConcurrentWorkerCountsIdentical(t *testing.T) {
	ckt := stressCircuit(t)
	const routes = 4
	for round := 0; round < 2; round++ {
		results := make([]*engine.Result, routes)
		errs := make([]error, routes)
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = core.Route(ckt, engine.Config{UseConstraints: true})
			}(i)
		}
		wg.Wait()
		var want []byte
		for i := range results {
			if errs[i] != nil {
				t.Fatalf("round %d: route %d: %v", round, i, errs[i])
			}
			got := fingerprint(t, results[i])
			if i == 0 {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: route %d routed differently from route 0 (%d vs %d bytes)",
					round, i, len(got), len(want))
			}
		}
	}
}

// TestShardWorkerMatrixIdentical covers the one place a shard count can
// still be given: the deprecated, ignored JobConfig.Shards field of the
// routing service. On every data set, a submission with shards ∈
// {1, 2, 4} × workers ∈ {1, 2, 8} must serve routedb bytes identical to
// the fully sequential in-process route. The result cache is disabled,
// so every cell is routed afresh; a leak of the old field into routing,
// or of scheduling into the result, shows up here as a byte diff.
func TestShardWorkerMatrixIdentical(t *testing.T) {
	names := gen.DatasetNames()
	if testing.Short() {
		names = names[:1]
	}
	svc := service.New(service.Options{Workers: 1, CacheSize: -1, Logf: func(string, ...any) {}})
	defer svc.Shutdown(context.Background())
	for _, ds := range names {
		t.Run(ds, func(t *testing.T) {
			p, err := gen.Dataset(ds)
			if err != nil {
				t.Fatal(err)
			}
			ckt, err := gen.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			var text strings.Builder
			if err := circuit.Format(&text, ckt); err != nil {
				t.Fatal(err)
			}
			seq, err := core.Route(ckt, engine.Config{UseConstraints: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(t, seq)
			for _, s := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("shards=%d", s), func(t *testing.T) {
					for _, w := range []int{1, 2, 8} {
						t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
							sub, err := svc.Submit(service.SubmitRequest{
								Circuit: text.String(),
								Config:  &service.JobConfig{UseConstraints: true, Workers: w, Shards: s},
							})
							if err != nil {
								t.Fatal(err)
							}
							st, err := svc.Wait(context.Background(), sub.Job.ID)
							if err != nil {
								t.Fatal(err)
							}
							if st.State != service.Done {
								t.Fatalf("job %s: state %s, error %q", sub.Job.ID, st.State, st.Error)
							}
							if got := sub.Job.Payload().RouteDB; !bytes.Equal(got, want) {
								t.Fatalf("shards=%d workers=%d routed differently from the sequential route (%d vs %d bytes)",
									s, w, len(got), len(want))
							}
						})
					}
				})
			}
		})
	}
}

// TestConsecutiveRoutesShareNoBackingArrays is the aliasing regression for
// the recycled scratch: a second route of the same circuit must not hand
// out graph storage still referenced by the first route's result. It
// checks pointer identity of every per-net slice pair directly, and then
// re-fingerprints the first result after the second route to prove it was
// not mutated through any backing array the identity check missed.
func TestConsecutiveRoutesShareNoBackingArrays(t *testing.T) {
	ckt := stressCircuit(t)
	cfg := engine.Config{UseConstraints: true}

	resA, err := core.Route(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fpA := fingerprint(t, resA)

	resB, err := core.Route(ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := range resA.Graphs {
		ga, gb := resA.Graphs[n], resB.Graphs[n]
		if ga == gb {
			t.Fatalf("net %d: both results hold the same *Graph", n)
		}
		if len(ga.Verts) > 0 && len(gb.Verts) > 0 && &ga.Verts[0] == &gb.Verts[0] {
			t.Fatalf("net %d: Verts backing array shared between consecutive routes", n)
		}
		if len(ga.Edges) > 0 && len(gb.Edges) > 0 && &ga.Edges[0] == &gb.Edges[0] {
			t.Fatalf("net %d: Edges backing array shared between consecutive routes", n)
		}
	}

	if got := fingerprint(t, resA); !bytes.Equal(got, fpA) {
		t.Fatalf("first result changed after routing again: %d vs %d bytes", len(got), len(fpA))
	}
}
