package seqroute

import (
	"context"
	"testing"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/verify"
)

func route(t *testing.T, ckt *circuit.Circuit, cfg engine.Config) *engine.Result {
	t.Helper()
	res, err := Route(context.Background(), ckt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func c1p1(t *testing.T) *circuit.Circuit {
	t.Helper()
	p, err := gen.Dataset("C1P1")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

func TestRouteSampleSmall(t *testing.T) {
	res := route(t, circuit.SampleSmall(), engine.Config{UseConstraints: true})
	if res.Engine != "sequential" {
		t.Errorf("Engine = %q, want sequential", res.Engine)
	}
	if len(res.Phases) != 1 || res.Phases[0].Name != "build" {
		t.Errorf("phases = %+v, want the build phase alone", res.Phases)
	}
	for n, g := range res.Graphs {
		if g == nil {
			t.Fatalf("net %d unrouted", n)
		}
		if !g.IsTree() {
			t.Errorf("net %s not a tree", res.Ckt.Nets[n].Name)
		}
		// All terminals connected.
		if _, err := g.Tentative(); err != nil {
			t.Errorf("net %s: %v", res.Ckt.Nets[n].Name, err)
		}
		if res.WirelenUm[n] <= 0 {
			t.Errorf("net %s: length %v", res.Ckt.Nets[n].Name, res.WirelenUm[n])
		}
	}
	if res.Delay <= 0 {
		t.Fatal("no delay reported")
	}
	// The trees feed the channel router like the concurrent ones do.
	if _, err := chanroute.Route(res.Ckt, res.Graphs); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineVersusConcurrent(t *testing.T) {
	ckt := c1p1(t)
	seq := route(t, ckt, engine.Config{UseConstraints: true})
	con, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	// The concurrent router must not lose to the net-at-a-time baseline
	// on the metrics the paper optimizes (generous tolerance: the point
	// is the ordering, not an exact factor).
	if con.Delay > seq.Delay*1.05 {
		t.Errorf("concurrent delay %v worse than sequential %v", con.Delay, seq.Delay)
	}
	if con.Dens.TotalTracks() > seq.Dens.TotalTracks()*11/10 {
		t.Errorf("concurrent tracks %d much worse than sequential %d",
			con.Dens.TotalTracks(), seq.Dens.TotalTracks())
	}
	t.Logf("delay: concurrent %.1f vs sequential %.1f ps", con.Delay, seq.Delay)
	t.Logf("tracks: concurrent %d vs sequential %d", con.Dens.TotalTracks(), seq.Dens.TotalTracks())
}

func TestBaselinePassesStructuralAudit(t *testing.T) {
	res := route(t, c1p1(t), engine.Config{UseConstraints: true})
	// The baseline promises trees, feed coverage and consistent lengths,
	// but not §4.1 pair parallelism (a documented weakness).
	v := verify.Check(verify.Parts{
		Ckt: res.Ckt, Geo: res.Geo, Feeds: res.Feeds, Graphs: res.Graphs,
		WirelenUm: res.WirelenUm, Dens: res.Dens, CheckPairs: false,
	})
	if !v.OK() {
		t.Fatalf("baseline failed audit: %v", v.Problems[0])
	}
}
