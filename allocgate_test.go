// Allocation gate for the routing hot path: the candidate-selection sweep
// and the incremental timing flush must run allocation-free in steady
// state. These tests fail the ordinary `go test` run (no benchmark flags
// needed) the moment a change puts an allocation back on either path, and
// CI runs the matching benchmarks with -benchmem as a second, independent
// reading of the same invariant.
package repro_test

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/gen"
)

// loadDataset generates one of the paper's data sets for a *testing.T
// (mustDataset is the *testing.B twin).
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

// allocsPerRun warms f once (lazily-sized scratch grows on first touch,
// which is one-time cost, not steady state) and then measures.
func allocsPerRun(f func()) float64 {
	f()
	return testing.AllocsPerRun(100, f)
}

// TestSelectEdgeAllocFree gates the §3.4 selection sweep: both the cold
// sweep (every net rescored through the dirty-net bitset) and the warm
// sweep (every score served from the per-net cache) must not allocate.
func TestSelectEdgeAllocFree(t *testing.T) {
	ckt := loadDataset(t, "C1P1")
	p, err := core.NewProbe(ckt, core.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := allocsPerRun(func() {
		p.InvalidateAll()
		if _, _, ok := p.SelectEdge(false); !ok {
			t.Fatal("no candidate")
		}
	}); got != 0 {
		t.Errorf("cold SelectEdge sweep: %.1f allocs/op, want 0", got)
	}
	if got := allocsPerRun(func() {
		if _, _, ok := p.SelectEdge(false); !ok {
			t.Fatal("no candidate")
		}
	}); got != 0 {
		t.Errorf("warm SelectEdge sweep: %.1f allocs/op, want 0", got)
	}
}

// TestTimingFlushAllocFree gates the incremental timing engine: a sparse
// net perturbation followed by a dirty-set Flush — the inner loop of every
// rip-up-and-reroute step — must not allocate.
func TestTimingFlushAllocFree(t *testing.T) {
	ckt := loadDataset(t, "C3P1")
	dg, err := dgraph.New(ckt)
	if err != nil {
		t.Fatal(err)
	}
	tm := dg.NewTiming()
	wl := make([]float64, len(ckt.Nets))
	for i := range wl {
		wl[i] = 300
	}
	tm.SetLumped(wl)
	tm.Flush()
	nets := make([]int, 0, 8)
	for i := 0; i < 8; i++ {
		nets = append(nets, (i*131)%len(ckt.Nets))
	}
	i := 0
	if got := allocsPerRun(func() {
		i++
		for _, n := range nets {
			tm.SetNetLumped(n, 300+float64(i%7))
		}
		tm.Flush()
	}); got != 0 {
		t.Errorf("perturb+Flush: %.1f allocs/op, want 0", got)
	}
}
