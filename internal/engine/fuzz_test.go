package engine_test

import (
	"context"
	"testing"

	"repro/internal/chanroute"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/routedb"
	"repro/internal/verify"
)

// FuzzRoute draws generator parameters from the fuzz input, routes the
// circuit with every registered engine in both modes, and audits each
// routing: verify.Check (with the §4.1 pair rule for the concurrent
// engine, the only one that promises it), verify.Channels (a declared
// chan-vcg-waived is a quality note, not an error), and a routing
// database that builds and validates. Parameter sets the generator
// refuses are skipped.
//
// The input picks 10-199 cells in 2-8 rows, up to 15 constraints, 4
// differential pairs and 15 pads a side; flags picks P2 placement
// (bit 0), a wide clock (bit 1), multi-sink constraints (bit 2) and
// datapath synthesis (bit 3).
func FuzzRoute(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(2), uint8(4), uint8(1), uint8(4), uint8(4), uint8(0))
	f.Add(int64(2), uint8(120), uint8(5), uint8(8), uint8(3), uint8(10), uint8(8), uint8(0b0111))
	f.Add(int64(3), uint8(90), uint8(4), uint8(6), uint8(0), uint8(6), uint8(5), uint8(0b1010))
	f.Fuzz(func(t *testing.T, seed int64, cells, rows, cons, pairs, pis, pos, flags uint8) {
		p := gen.Params{
			Name:        "fuzz",
			Seed:        seed,
			Cells:       10 + int(cells)%190,
			Rows:        2 + int(rows)%7,
			SeqFrac:     0.18,
			AvgFanout:   1.6,
			Locality:    24,
			PIs:         int(pis) % 16,
			POs:         int(pos) % 16,
			DiffPairs:   int(pairs) % 5,
			WideClock:   flags&2 != 0,
			FeedFrac:    0.2,
			Constraints: int(cons) % 16,
			LimitFactor: 1.15,
			Datapath:    flags&8 != 0,
			MultiSink:   flags&4 != 0,
		}
		if flags&1 != 0 {
			p.Style = gen.P2
		}
		ckt, err := gen.Generate(p)
		if err != nil {
			t.Skip(err)
		}
		for _, name := range engine.Names() {
			for _, constrained := range []bool{true, false} {
				res, err := engine.Route(context.Background(), name, ckt, engine.Config{UseConstraints: constrained})
				if err != nil {
					t.Fatalf("%s constrained=%v: %v", name, constrained, err)
				}
				v := verify.Check(verify.Parts{
					Ckt: res.Ckt, Geo: res.Geo, Feeds: res.Feeds, Graphs: res.Graphs,
					WirelenUm: res.WirelenUm, Dens: res.Dens, CheckPairs: name == engine.DefaultName,
				})
				if !v.OK() {
					t.Fatalf("%s constrained=%v: verify: %v (%d problems)", name, constrained, v.Problems[0], len(v.Problems))
				}
				cr, err := chanroute.Route(res.Ckt, res.Graphs)
				if err != nil {
					t.Fatalf("%s constrained=%v: %v", name, constrained, err)
				}
				for _, pr := range verify.Channels(cr).Problems {
					if pr.Rule != "chan-vcg-waived" {
						t.Fatalf("%s constrained=%v: verify: %v", name, constrained, pr)
					}
				}
				db, err := routedb.Build(res, cr)
				if err != nil {
					t.Fatalf("%s constrained=%v: %v", name, constrained, err)
				}
				if err := db.Validate(); err != nil {
					t.Fatalf("%s constrained=%v: routedb invalid: %v", name, constrained, err)
				}
			}
		}
	})
}
