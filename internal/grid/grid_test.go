package grid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
)

func mustGeometry(t *testing.T, ckt *circuit.Circuit) *Geometry {
	t.Helper()
	if err := ckt.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	g, err := New(ckt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFeedSlotsFound(t *testing.T) {
	g := mustGeometry(t, circuit.SampleSmall())
	// SampleSmall row 0 has feed cells at columns 13 and 22; row 1 at 20.
	r0 := g.FeedSlots(0)
	if len(r0) != 2 || r0[0].Col != 13 || r0[1].Col != 22 {
		t.Fatalf("row 0 feed slots = %v, want cols 13,22", r0)
	}
	r1 := g.FeedSlots(1)
	if len(r1) != 1 || r1[0].Col != 20 {
		t.Fatalf("row 1 feed slots = %v, want col 20", r1)
	}
}

func TestFlags(t *testing.T) {
	g := mustGeometry(t, circuit.SampleSmall())
	if !g.SetFlag(0, 13, 2) {
		t.Fatal("SetFlag on existing slot failed")
	}
	if g.SetFlag(0, 14, 2) {
		t.Fatal("SetFlag on non-slot should fail")
	}
	if g.FeedSlots(0)[0].Flag != 2 {
		t.Fatal("flag not recorded")
	}
}

func TestCoordinates(t *testing.T) {
	ckt := circuit.SampleSmall()
	g := mustGeometry(t, ckt)
	if got, want := g.SpanUm(3, 7), 4*ckt.Tech.PitchX; got != want {
		t.Fatalf("SpanUm(3,7) = %v, want %v", got, want)
	}
	if got, want := g.SpanUm(7, 3), 4*ckt.Tech.PitchX; got != want {
		t.Fatalf("SpanUm must be symmetric: %v != %v", got, want)
	}
	if g.Channels() != ckt.Rows+1 {
		t.Fatalf("Channels = %d, want %d", g.Channels(), ckt.Rows+1)
	}
}

func TestInsertFeedCellsWidensEveryRowEqually(t *testing.T) {
	ckt := circuit.SampleSmall()
	groups := []FeedGroupSpec{
		{Row: 0, Width: 2}, {Row: 0, Width: 1},
		{Row: 1, Width: 1}, {Row: 1, Width: 1}, {Row: 1, Width: 1},
	}
	out, cols, err := InsertFeedCells(ckt, groups)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cols != ckt.Cols+3 {
		t.Fatalf("chip width %d, want %d", out.Cols, ckt.Cols+3)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("widened circuit invalid: %v", err)
	}
	if len(cols[0]) != 2 || len(cols[1]) != 3 {
		t.Fatalf("inserted group counts = %d,%d want 2,3", len(cols[0]), len(cols[1]))
	}
	// Feed capacity grew by exactly the inserted pitches.
	g0, _ := New(ckt)
	g1, _ := New(out)
	if got, want := len(g1.FeedSlots(0)), len(g0.FeedSlots(0))+3; got != want {
		t.Fatalf("row 0 slots = %d, want %d", got, want)
	}
	if got, want := len(g1.FeedSlots(1)), len(g0.FeedSlots(1))+3; got != want {
		t.Fatalf("row 1 slots = %d, want %d", got, want)
	}
}

func TestInsertFeedCellsRejectsUnevenTotals(t *testing.T) {
	ckt := circuit.SampleSmall()
	_, _, err := InsertFeedCells(ckt, []FeedGroupSpec{{Row: 0, Width: 2}})
	if err == nil {
		t.Fatal("want error for uneven per-row totals (row 1 got none)")
	}
}

func TestInsertFeedCellsZeroIsClone(t *testing.T) {
	ckt := circuit.SampleSmall()
	out, _, err := InsertFeedCells(ckt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cols != ckt.Cols || len(out.Cells) != len(ckt.Cells) {
		t.Fatal("zero insertion must return an unchanged clone")
	}
	out.Cells[0].Col = 1
	if ckt.Cells[0].Col == 1 {
		t.Fatal("result aliases the input circuit")
	}
}

func TestInsertFeedCellsPreservesOrderAndGaps(t *testing.T) {
	ckt := circuit.SampleSmall()
	out, _, err := InsertFeedCells(ckt, []FeedGroupSpec{{Row: 0, Width: 1}, {Row: 1, Width: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Relative left-to-right order of the original cells must not change.
	orderOf := func(c *circuit.Circuit, row int) []string {
		type pc struct {
			name string
			col  int
		}
		var cells []pc
		for i := range c.Cells {
			if c.Cells[i].Row == row && c.Cells[i].Name[0] != '_' {
				cells = append(cells, pc{c.Cells[i].Name, c.Cells[i].Col})
			}
		}
		for i := 1; i < len(cells); i++ {
			for j := i; j > 0 && cells[j].col < cells[j-1].col; j-- {
				cells[j], cells[j-1] = cells[j-1], cells[j]
			}
		}
		names := make([]string, len(cells))
		for i, x := range cells {
			names[i] = x.name
		}
		return names
	}
	for r := 0; r < ckt.Rows; r++ {
		a, b := orderOf(ckt, r), orderOf(out, r)
		if len(a) != len(b) {
			t.Fatalf("row %d lost cells", r)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d order changed: %v vs %v", r, a, b)
			}
		}
	}
}

// TestInsertFeedCellsQuick: for random even insertion requests the result
// always validates and widens by the common total.
func TestInsertFeedCellsQuick(t *testing.T) {
	ckt := circuit.SampleSmall()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := 1 + rng.Intn(4) // pitches per row
		var groups []FeedGroupSpec
		for r := 0; r < ckt.Rows; r++ {
			left := f
			for left > 0 {
				w := 1 + rng.Intn(left)
				if rng.Intn(2) == 0 {
					w = 1
				}
				groups = append(groups, FeedGroupSpec{Row: r, Width: w})
				left -= w
			}
		}
		out, _, err := InsertFeedCells(ckt, groups)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return out.Cols == ckt.Cols+f && out.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertFeedCellsAddsOnePitchFeedType: inserted feed cells are one
// pitch wide, so a library whose only feed type is wider gets the
// one-pitch _FEED type added rather than wide cells stacked one column
// apart, which overlapped.
func TestInsertFeedCellsAddsOnePitchFeedType(t *testing.T) {
	ckt := &circuit.Circuit{Name: "wide", Tech: circuit.DefaultTech, Rows: 1, Cols: 12,
		Lib: []circuit.CellType{{Name: "A", Width: 2}, {Name: "WFEED", Width: 2, Feed: true}}}
	for i := 0; i < 6; i++ {
		ckt.Cells = append(ckt.Cells, circuit.Cell{Name: string(rune('a' + i)), Type: i % 2, Row: 0, Col: 2 * i})
	}
	out, cols, err := InsertFeedCells(ckt, []FeedGroupSpec{{Row: 0, Width: 2}, {Row: 0, Width: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Lib) != 3 || out.Lib[2].Name != "_FEED" || out.Lib[2].Width != 1 || !out.Lib[2].Feed {
		t.Fatalf("library %v, want _FEED (1 pitch) appended", out.Lib)
	}
	for _, c := range out.Cells[len(ckt.Cells):] {
		if c.Type != 2 {
			t.Fatalf("inserted cell %s has type %s", c.Name, out.Lib[c.Type].Name)
		}
	}
	if len(cols[0]) != 2 || out.Cols != ckt.Cols+3 {
		t.Fatalf("columns %v, width %d", cols, out.Cols)
	}
}
