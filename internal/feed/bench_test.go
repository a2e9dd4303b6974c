package feed_test

import (
	"testing"

	"repro/internal/dgraph"
	"repro/internal/feed"
	"repro/internal/gen"
)

// BenchmarkAssign measures one feed assignment of a circuit of the
// benchmark's large shape (3000 cells in 18 rows), in the slack order the
// router uses. The first pass falls short, so every run inserts feed cells
// and repeats the assignment on the widened chip.
func BenchmarkAssign(b *testing.B) {
	p := gen.StressParams()
	p.Cells, p.Rows = 3000, 18
	ckt, err := gen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	dg, err := dgraph.New(ckt)
	if err != nil {
		b.Fatal(err)
	}
	order := dg.SlackOrder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := feed.Assign(ckt, order)
		if err != nil {
			b.Fatal(err)
		}
		if res.AddedPitches == 0 {
			b.Fatal("no feed cells inserted")
		}
	}
}
