package core

import (
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/rgraph"
)

// TestAllocGate is the zero-allocation gate of the routing loop. It runs
// the code it guards and counts heap allocations (runtime.MemStats.Mallocs)
// at GOMAXPROCS 1; every row must read exactly 0.
//
//   - initial/<circuit>/<config>: the whole Fig. 2 lines 04-07 deletion
//     loop (initialRouting) after its first selection, which sizes every
//     net's delay-criteria line. The circuits are the five Table 1 data
//     sets and sampleDiffTaps, whose pair deletes in lock step (§4.1);
//     the configurations are constrained, unconstrained and Elmore.
//   - rebuild/<circuit>: rgraph.BuildInto of every net of the constrained
//     route into its own graph, after one warming rebuild.
//   - select-cold, select-warm: a selection sweep that re-scores every
//     net, and one served from the per-net cache.
//   - flush: a lumped delay change on eight nets and a dirty-set
//     Timing.Flush.
//
// The race detector's instrumentation allocates, so the gate skips under
// -race and nowhere else.
func TestAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates behind the code under test")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	ckts := []*circuit.Circuit{sampleDiffTaps()}
	for _, name := range gen.DatasetNames() {
		ckts = append(ckts, genDataset(t, name))
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"constrained", Config{UseConstraints: true}},
		{"unconstrained", Config{}},
		{"elmore", Config{UseConstraints: true, DelayModel: Elmore, RPerUm: 0.0005}},
	}
	routed := make([]*router, len(ckts)) // the constrained routes
	for i, ckt := range ckts {
		for _, c := range configs {
			t.Run("initial/"+ckt.Name+"/"+c.name, func(t *testing.T) {
				r := newTestRouter(t, ckt, c.cfg)
				r.selectEdge(nil, r.cfg.AreaFirst)
				var ps PhaseStat
				var err error
				if n := mallocs(func() { err = r.initialRouting(&ps) }); n != 0 {
					t.Errorf("%d allocations over %d deletions, want 0", n, ps.Deletions)
				}
				if err != nil {
					t.Fatal(err)
				}
				if c.name == "constrained" {
					routed[i] = r
				}
			})
		}
	}
	for i, r := range routed {
		t.Run("rebuild/"+ckts[i].Name, func(t *testing.T) {
			if r == nil {
				t.Fatal("the constrained route failed")
			}
			var err error
			build := func() {
				for n, g := range r.graphs {
					if _, err = rgraph.BuildInto(g, r.ckt, r.geo, n, r.feeds[n]); err != nil {
						return
					}
				}
			}
			build()
			if err != nil {
				t.Fatal(err)
			}
			if n := mallocs(build); n != 0 {
				t.Errorf("%d allocations over %d rebuilds, want 0", n, len(r.graphs))
			}
		})
	}

	sel := newTestRouter(t, genDataset(t, "C1P1"), Config{UseConstraints: true})
	sweep := func(cold bool) func(*testing.T) {
		return func(t *testing.T) {
			if cold {
				for n := range sel.graphs {
					sel.touchNet(n)
				}
			}
			if _, ok := sel.selectEdge(nil, false); !ok {
				t.Fatal("no candidate")
			}
		}
	}
	tim := newTestRouter(t, genDataset(t, "C3P1"), Config{UseConstraints: true})
	step := 0
	flush := func(*testing.T) {
		step++
		for k := 0; k < 8; k++ {
			tim.tm.SetNetLumped((k*131)%len(tim.graphs), 300+float64(step%7))
		}
		tim.tm.Flush()
	}
	for _, row := range []struct {
		name string
		f    func(*testing.T)
	}{
		{"select-cold", sweep(true)},
		{"select-warm", sweep(false)},
		{"flush", flush},
	} {
		t.Run(row.name, func(t *testing.T) {
			row.f(t) // warm: the first call may size lazily grown scratch
			if n := mallocs(func() {
				for i := 0; i < 10; i++ {
					row.f(t)
				}
			}); n != 0 {
				t.Errorf("%d allocations over 10 runs, want 0", n)
			}
		})
	}
}

// mallocs returns the number of heap allocations made while f runs. It
// collects garbage first: a collection still running when f starts
// sometimes added one allocation f never made (about one gate run in 40
// failed that way), and after a finished collection an f that allocates
// nothing cannot start another.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// genDataset generates one of the paper's data sets.
func genDataset(t testing.TB, name string) *circuit.Circuit {
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
