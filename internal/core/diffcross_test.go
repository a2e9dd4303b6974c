package core

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/rgraph"
)

// TestDiffPairAcrossRows routes a differential pair that must cross a cell
// row: the pair's feedthroughs sit on adjacent columns, the trees stay
// mirrored through the feedthrough edges, and feed re-assignment during
// reroute keeps the pairing intact.
func TestDiffPairAcrossRows(t *testing.T) {
	for _, cfg := range []engine.Config{
		{UseConstraints: true},
		{UseConstraints: true, NoFeedReroute: true},
		{UseConstraints: false},
	} {
		res := route(t, circuit.SampleDiffCross(), cfg)
		q, qb := 0, 1
		fq, fqb := res.Feeds[q], res.Feeds[qb]
		if len(fq) != 1 || len(fqb) != 1 {
			t.Fatalf("cfg %+v: pair feeds %v / %v, want one row each", cfg, fq, fqb)
		}
		d := fqb[0].Col - fq[0].Col
		if d != 1 && d != -1 {
			t.Fatalf("cfg %+v: pair feed columns %d/%d not adjacent", cfg, fq[0].Col, fqb[0].Col)
		}
		// Mirrored alive sets including the feedthrough edges.
		ga, gb := res.Graphs[q], res.Graphs[qb]
		feeds := 0
		for e := range ga.Edges {
			if ga.Edges[e].Alive != gb.Edges[e].Alive {
				t.Fatalf("cfg %+v: pair edge %d alive mismatch", cfg, e)
			}
			if ga.Edges[e].Alive && ga.Edges[e].Kind == rgraph.EFeed {
				feeds++
				if gb.Edges[e].Kind != rgraph.EFeed {
					t.Fatalf("cfg %+v: mirrored edge %d kind mismatch", cfg, e)
				}
			}
		}
		if feeds != 1 {
			t.Fatalf("cfg %+v: %d feedthrough edges in pair tree, want 1", cfg, feeds)
		}
		if res.WirelenUm[q] != res.WirelenUm[qb] {
			t.Fatalf("cfg %+v: pair lengths differ: %v vs %v", cfg, res.WirelenUm[q], res.WirelenUm[qb])
		}
	}
}
