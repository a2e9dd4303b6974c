// Randomized equivalence: the compact-subgraph incremental engine
// (MarkNet/Flush) must be bit-identical to a from-scratch full Analyze on
// a fresh Timing, and to the graph-sized reference topo walk
// (ReferenceWorst). External test package: internal/gen imports dgraph,
// so the generator can only be used from outside.
package dgraph_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
)

// equivCases synthesizes ≥50 distinct small circuits spanning both
// placement styles, multi-sink constraints, diff pairs and datapath
// synthesis.
func equivCases(t *testing.T) []gen.Params {
	t.Helper()
	var out []gen.Params
	for i := 0; i < 52; i++ {
		p := gen.Params{
			Name:        "equiv",
			Seed:        int64(1000 + 17*i),
			Cells:       60 + 13*(i%11),
			Rows:        3 + i%4,
			SeqFrac:     0.15 + 0.02*float64(i%3),
			AvgFanout:   1.2 + 0.3*float64(i%3),
			Locality:    8 + i%16,
			PIs:         4 + i%5,
			POs:         4 + i%4,
			DiffPairs:   i % 4,
			FeedFrac:    0.15,
			Constraints: 3 + i%9,
			LimitFactor: 1.05 + 0.05*float64(i%4),
			MultiSink:   i%2 == 0,
			Datapath:    i%7 == 3,
		}
		if i%2 == 1 {
			p.Style = gen.P2
		}
		if i%5 == 2 {
			p.WideClock = true
		}
		out = append(out, p)
	}
	return out
}

// lumped returns a deterministic synthetic wirelength vector.
func lumped(nNets int, scale float64) []float64 {
	wl := make([]float64, nNets)
	for n := range wl {
		wl[n] = scale * float64((n*37)%101+1)
	}
	return wl
}

// checkIdentical compares every per-constraint output of two Timings
// bitwise: Worst, Margin, CriticalNets, CriticalPath, and a sweep of
// DeltaIfNetDelay probes.
func checkIdentical(t *testing.T, g *dgraph.Graph, inc, full *dgraph.Timing, tag string) {
	t.Helper()
	for p := range inc.Cons {
		iw, fw := inc.Cons[p].Worst, full.Cons[p].Worst
		if math.Float64bits(iw) != math.Float64bits(fw) {
			t.Fatalf("%s: cons %d Worst: incremental %v != full %v", tag, p, iw, fw)
		}
		im, fm := inc.Cons[p].Margin, full.Cons[p].Margin
		if math.Float64bits(im) != math.Float64bits(fm) {
			t.Fatalf("%s: cons %d Margin: incremental %v != full %v", tag, p, im, fm)
		}
		if rw := inc.ReferenceWorst(p); math.Float64bits(iw) != math.Float64bits(rw) {
			t.Fatalf("%s: cons %d Worst %v != reference topo walk %v", tag, p, iw, rw)
		}
		in, fn := inc.CriticalNets(p), full.CriticalNets(p)
		if len(in) != len(fn) {
			t.Fatalf("%s: cons %d CriticalNets: %v vs %v", tag, p, in, fn)
		}
		for i := range in {
			if in[i] != fn[i] {
				t.Fatalf("%s: cons %d CriticalNets[%d]: %d vs %d", tag, p, i, in[i], fn[i])
			}
		}
		ip, fp := inc.CriticalPath(p), full.CriticalPath(p)
		if len(ip) != len(fp) {
			t.Fatalf("%s: cons %d CriticalPath: %v vs %v", tag, p, ip, fp)
		}
		for i := range ip {
			if ip[i] != fp[i] {
				t.Fatalf("%s: cons %d CriticalPath[%d]: %d vs %d", tag, p, i, ip[i], fp[i])
			}
		}
		for n := 0; n < len(inc.ArcDelay) && n < 16; n++ {
			net := n * 3 % maxNet(g)
			id := inc.DeltaIfNetDelay(p, net, 42.5)
			fd := full.DeltaIfNetDelay(p, net, 42.5)
			if math.Float64bits(id) != math.Float64bits(fd) {
				t.Fatalf("%s: cons %d DeltaIfNetDelay(net %d): %v vs %v", tag, p, net, id, fd)
			}
		}
	}
}

func maxNet(g *dgraph.Graph) int {
	if n := len(g.Ckt.Nets); n > 0 {
		return n
	}
	return 1
}

// freshFull builds a new Timing with the same arc-delay state and runs a
// from-scratch Analyze.
func freshFull(g *dgraph.Graph, inc *dgraph.Timing) *dgraph.Timing {
	full := g.NewTiming()
	copy(full.ArcDelay, inc.ArcDelay)
	full.Analyze()
	return full
}

func TestFlushEquivalence(t *testing.T) {
	cases := equivCases(t)
	if len(cases) < 50 {
		t.Fatalf("need ≥50 random circuits, have %d", len(cases))
	}
	for ci, params := range cases {
		ckt, err := gen.Generate(params)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		g, err := dgraph.New(ckt)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		rng := rand.New(rand.NewSource(int64(9000 + ci)))
		inc := g.NewTiming()
		inc.SetLumped(lumped(len(ckt.Nets), 1))
		inc.Flush()
		checkIdentical(t, g, inc, freshFull(g, inc), "initial")

		// Five rounds of sparse net perturbations, flushing after each;
		// the incremental state must track a fresh full analysis exactly.
		// Every other perturbation sets per-sink delays, as the Elmore
		// model does.
		for round := 0; round < 5; round++ {
			k := 1 + rng.Intn(4)
			for i := 0; i < k; i++ {
				n := rng.Intn(len(ckt.Nets))
				if rng.Intn(2) == 0 {
					inc.SetNetLumped(n, 5+rng.Float64()*900)
					continue
				}
				perSink := make([]float64, len(ckt.Fanouts(n)))
				for j := range perSink {
					perSink[j] = 5 + rng.Float64()*900
				}
				inc.SetNetArcDelays(n, perSink)
			}
			inc.Flush()
			checkIdentical(t, g, inc, freshFull(g, inc), "round")
		}
	}
}

// TestCriticalNetsSurviveFlush pins that CriticalNets returns a slice its
// caller owns. The router's delay phases walk a constraint's critical
// nets while every reroute flushes the timing, so a result built in the
// Timing's reused flush buffer would change the nets the walk visits.
func TestCriticalNetsSurviveFlush(t *testing.T) {
	p, err := gen.Dataset("C1P1")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dgraph.New(ckt)
	if err != nil {
		t.Fatal(err)
	}
	tm := g.NewTiming()
	tm.SetLumped(lumped(len(ckt.Nets), 1))
	tm.Flush()
	for c := range tm.Cons {
		nets := tm.CriticalNets(c)
		want := append([]int(nil), nets...)
		tm.SetLumped(lumped(len(ckt.Nets), float64(2+c%2)))
		tm.Flush()
		for i := range want {
			if nets[i] != want[i] {
				t.Fatalf("cons %d: critical nets %v became %v after a Flush", c, want, nets)
			}
		}
	}
}

// TestFlushEquivalenceWorkers runs five identical perturb-and-flush
// timelines from five goroutines at once, each on its own delay graph and
// Timing (run with -race in CI): they must agree bit for bit.
func TestFlushEquivalenceWorkers(t *testing.T) {
	p, err := gen.Dataset("C2P1")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	tms := make([]*dgraph.Timing, 5)
	errs := make([]error, len(tms))
	var wg sync.WaitGroup
	for i := range tms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := dgraph.New(ckt)
			if err != nil {
				errs[i] = err
				return
			}
			tm := g.NewTiming()
			tm.SetLumped(lumped(len(ckt.Nets), 1))
			tm.Flush()
			rng := rand.New(rand.NewSource(4242))
			for round := 0; round < 20; round++ {
				for j := 0; j < 3; j++ {
					tm.SetNetLumped(rng.Intn(len(ckt.Nets)), 5+rng.Float64()*900)
				}
				tm.Flush()
			}
			tms[i] = tm
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("timeline %d: %v", i, err)
		}
	}
	ref := tms[0]
	for i, tm := range tms[1:] {
		for p := range tm.Cons {
			if math.Float64bits(tm.Cons[p].Margin) != math.Float64bits(ref.Cons[p].Margin) {
				t.Fatalf("timeline %d: cons %d margin %v != timeline 0 margin %v",
					i+1, p, tm.Cons[p].Margin, ref.Cons[p].Margin)
			}
			if math.Float64bits(tm.Cons[p].Worst) != math.Float64bits(ref.Cons[p].Worst) {
				t.Fatalf("timeline %d: cons %d worst %v != timeline 0 worst %v",
					i+1, p, tm.Cons[p].Worst, ref.Cons[p].Worst)
			}
		}
	}
}
