package steiner

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/density"
	"repro/internal/engine"
	"repro/internal/feed"
	"repro/internal/rgraph"
)

func TestEstimateTargetPositive(t *testing.T) {
	if got := demandTarget(circuit.SampleSmall()); got < 1 {
		t.Fatalf("target %d", got)
	}
}

// TestWeight checks the edge cost on one net's graph: a trunk edge in a
// channel over the target costs len·(1+α·over), a trunk edge at or under
// it and every non-trunk edge cost their length, and a zero-length edge
// costs 1e-9.
func TestWeight(t *testing.T) {
	fr, err := feed.Assign(circuit.SampleSmall(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A target of 3 leaves an empty channel under it for a net of pitch
	// 1 or 2.
	r := &run{target: 3, dens: density.New(fr.Ckt.Channels(), fr.Ckt.Cols)}
	// The first net with a trunk, a non-trunk edge of non-zero length and
	// a zero-length edge.
	var g *rgraph.Graph
	trunk := -1
	for n := range fr.Ckt.Nets {
		gn, err := rgraph.Build(fr.Ckt, fr.Geo, n, fr.Feeds[n])
		if err != nil {
			t.Fatal(err)
		}
		te, other, zero := -1, false, false
		for e, ed := range gn.Edges {
			switch {
			case ed.Len == 0:
				zero = true
			case ed.Kind == rgraph.ETrunk:
				if te < 0 {
					te = e
				}
			default:
				other = true
			}
		}
		if te >= 0 && other && zero {
			g, trunk = gn, te
			break
		}
	}
	if g == nil {
		t.Fatal("no net in the sample has a trunk, a non-trunk and a zero-length edge")
	}
	w := r.weight(g)
	te := g.Edges[trunk]

	check := func(over int) {
		t.Helper()
		for e, ed := range g.Edges {
			want := ed.Len
			switch {
			case ed.Len == 0:
				want = 1e-9
			case e == trunk && over > 0:
				want = ed.Len * (1 + alpha*float64(over))
			}
			if got := w(e); got != want {
				t.Errorf("over %d: %v edge %d (len %v) costs %v, want %v", over, ed.Kind, e, ed.Len, got, want)
			}
		}
	}

	// Under the target: nothing committed yet.
	if g.Pitch >= r.target {
		t.Fatalf("pitch %d not under target %d", g.Pitch, r.target)
	}
	check(0)
	// At the target: committed density plus the pitch equals it.
	r.dens.Add(te.Ch, te.X1, te.X2, r.target-g.Pitch)
	check(0)
	// Three tracks over, on the trunk's interval only.
	r.dens.Add(te.Ch, te.X1, te.X2, 3)
	check(3)
}

// TestOneBuildPhase: the router reports its build phase alone, whether
// constraints are on or not.
func TestOneBuildPhase(t *testing.T) {
	for _, use := range []bool{true, false} {
		res, err := Route(context.Background(), circuit.SampleSmall(), engine.Config{UseConstraints: use})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Phases) != 1 || res.Phases[0].Name != "build" {
			t.Errorf("constraints=%v: phases %+v, want the build phase alone", use, res.Phases)
		}
	}
}
