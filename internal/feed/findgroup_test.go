package feed

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/grid"
)

// slotRow builds a geometry with feed slots at the given columns of row 0.
func slotRow(t *testing.T, cols ...int) *grid.Geometry {
	t.Helper()
	maxCol := 0
	for _, c := range cols {
		if c > maxCol {
			maxCol = c
		}
	}
	ckt := &circuit.Circuit{
		Name: "slots", Tech: circuit.DefaultTech, Rows: 1, Cols: maxCol + 2,
		Lib: []circuit.CellType{{Name: "FEED", Width: 1, Feed: true}},
	}
	for i, c := range cols {
		ckt.Cells = append(ckt.Cells, circuit.Cell{Name: string(rune('a' + i)), Type: 0, Row: 0, Col: c})
	}
	geo, err := grid.New(ckt)
	if err != nil {
		t.Fatal(err)
	}
	return geo
}

func none(row, col int) bool { return false }

func TestFindGroupNearest(t *testing.T) {
	geo := slotRow(t, 2, 5, 9)
	if got := FindGroup(geo, none, 0, 1, 6, 1, false); got != 5 {
		t.Fatalf("nearest to 6 = %d, want 5", got)
	}
	if got := FindGroup(geo, none, 0, 1, 0, 1, false); got != 2 {
		t.Fatalf("nearest to 0 = %d, want 2", got)
	}
}

func TestFindGroupAdjacency(t *testing.T) {
	geo := slotRow(t, 2, 3, 7, 9, 10, 11)
	// Width 2: groups at (2,3), (9,10), (10,11).
	if got := FindGroup(geo, none, 0, 2, 0, 2, false); got != 2 {
		t.Fatalf("2-wide near 0 = %d, want 2", got)
	}
	if got := FindGroup(geo, none, 0, 2, 12, 2, false); got != 10 {
		t.Fatalf("2-wide near 12 = %d, want 10", got)
	}
	// Width 3: only (9,10,11).
	if got := FindGroup(geo, none, 0, 3, 0, 3, false); got != 9 {
		t.Fatalf("3-wide = %d, want 9", got)
	}
	// Width 4: none.
	if got := FindGroup(geo, none, 0, 4, 0, 4, false); got != -1 {
		t.Fatalf("4-wide = %d, want -1", got)
	}
}

func TestFindGroupOccupancy(t *testing.T) {
	geo := slotRow(t, 2, 5, 9)
	occ := func(row, col int) bool { return col == 5 }
	if got := FindGroup(geo, occ, 0, 1, 6, 1, false); got != 9 {
		t.Fatalf("with 5 taken, nearest to 6 = %d, want 9", got)
	}
}

func TestFindGroupFlags(t *testing.T) {
	geo := slotRow(t, 2, 5, 9, 10)
	geo.SetFlag(0, 5, 2)
	geo.SetFlag(0, 9, 2)
	geo.SetFlag(0, 10, 2)
	// With flags respected, a 1-pitch net may not use 2-flagged slots.
	if got := FindGroup(geo, none, 0, 1, 6, 1, true); got != 2 {
		t.Fatalf("1-pitch with flags = %d, want 2 (only unflagged slot)", got)
	}
	// A 2-pitch net must use a 2-flagged adjacent group.
	if got := FindGroup(geo, none, 0, 2, 0, 2, true); got != 9 {
		t.Fatalf("2-pitch with flags = %d, want 9", got)
	}
	// Ignoring flags, the 1-pitch net takes the nearest slot.
	if got := FindGroup(geo, none, 0, 1, 6, 1, false); got != 5 {
		t.Fatalf("1-pitch without flags = %d, want 5", got)
	}
}

func TestFlagCompatible(t *testing.T) {
	cases := []struct {
		flag, width int
		want        bool
	}{
		{0, 1, true}, {1, 1, true}, {2, 1, false}, {3, 1, false},
		{0, 2, false}, {1, 2, false}, {2, 2, true}, {3, 2, false},
		{3, 3, true},
	}
	for _, c := range cases {
		if got := flagCompatible(c.flag, c.width); got != c.want {
			t.Errorf("flagCompatible(%d,%d) = %v, want %v", c.flag, c.width, got, c.want)
		}
	}
}

func TestChannelSpanExported(t *testing.T) {
	ckt := circuit.SampleSmall()
	minCh, maxCh, center := ChannelSpan(ckt, 1) // net n1
	if minCh != 0 || maxCh != 1 {
		t.Fatalf("n1 channel span [%d,%d], want [0,1]", minCh, maxCh)
	}
	if center <= 0 || center >= ckt.Cols {
		t.Fatalf("center %d out of range", center)
	}
}

// TestChannelSpanMatchesTerminals compares ChannelSpan with the same
// span taken over Terminals and PositionsOf, on every net of random
// circuits with pads, pairs and datapath nets, and requires it to
// allocate nothing.
func TestChannelSpanMatchesTerminals(t *testing.T) {
	for i := 0; i < 6; i++ {
		p := gen.StressParams()
		p.Seed, p.Cells, p.Rows, p.Datapath = int64(40+i), 150, 2+i, i%2 == 0
		ckt, err := gen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for n := range ckt.Nets {
			wantMin, wantMax, sum, cnt := math.MaxInt32, -1, 0, 0
			for _, term := range ckt.Terminals(n) {
				for _, pos := range ckt.PositionsOf(term) {
					wantMin, wantMax = min(wantMin, pos.Channel), max(wantMax, pos.Channel)
					sum += pos.Col
					cnt++
				}
			}
			minCh, maxCh, center := ChannelSpan(ckt, n)
			if minCh != wantMin || maxCh != wantMax || center != sum/cnt {
				t.Fatalf("seed %d net %d: ChannelSpan (%d, %d, %d), terminals (%d, %d, %d)",
					p.Seed, n, minCh, maxCh, center, wantMin, wantMax, sum/cnt)
			}
			if a := testing.AllocsPerRun(10, func() { ChannelSpan(ckt, n) }); a != 0 {
				t.Fatalf("seed %d net %d: ChannelSpan allocates %v times", p.Seed, n, a)
			}
		}
	}
}

// findGroupScan is the left-to-right scan FindGroup replaced, kept as its
// oracle: it tries every window from the left end of the row and keeps
// the first one at the smallest distance.
func findGroupScan(geo *grid.Geometry, occupied func(row, col int) bool, row, width, target, flagWidth int, respectFlags bool) int {
	slots := geo.FeedSlots(row)
	bestCol, bestDist := -1, math.MaxInt32
	for i := 0; i+width <= len(slots); i++ {
		ok := true
		for j := 0; j < width; j++ {
			s := slots[i+j]
			if s.Col != slots[i].Col+j || occupied(row, s.Col) {
				ok = false
				break
			}
			if respectFlags && !flagCompatible(s.Flag, flagWidth) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		dist := slots[i].Col + (width-1)/2 - target
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist {
			bestDist, bestCol = dist, slots[i].Col
		}
	}
	return bestCol
}

// TestFindGroupMatchesScan compares the outward walk with the scan on
// random rows: slot density, flags, occupancy, width, target (also off
// the row) and flag mode all vary. Queries whose two nearest free groups
// lie at the same distance on either side of the target must occur, or
// the left-wins rule goes untested.
func TestFindGroupMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	queries, ties, misses := 0, 0, 0
	for row := 0; row < 2000; row++ {
		cols := 1 + rng.Intn(60)
		density, busy := rng.Float64(), rng.Float64()/2
		var slots []grid.FeedSlot
		taken := make([]bool, cols)
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				slots = append(slots, grid.FeedSlot{Col: c, Cell: c, Flag: []int{0, 0, 1, 2, 3}[rng.Intn(5)]})
				taken[c] = rng.Float64() < busy
			}
		}
		geo := &grid.Geometry{Feeds: [][]grid.FeedSlot{slots}}
		occ := func(_, col int) bool { return taken[col] }
		for q := 0; q < 20; q++ {
			width := 1 + rng.Intn(3)
			flagWidth := width
			if rng.Intn(4) == 0 {
				flagWidth = 1 + rng.Intn(3)
			}
			target := rng.Intn(cols+10) - 5
			respect := rng.Intn(2) == 0
			want := findGroupScan(geo, occ, 0, width, target, flagWidth, respect)
			if got := FindGroup(geo, occ, 0, width, target, flagWidth, respect); got != want {
				t.Fatalf("row %v taken %v: FindGroup(width %d, target %d, flag %d, respect %v) = %d, scan %d",
					slots, taken, width, target, flagWidth, respect, got, want)
			}
			queries++
			if want < 0 {
				misses++
				continue
			}
			// A tie: a free group as near as the answer on its other side.
			mirror := 2*target - (want + (width-1)/2) - (width-1)/2
			if mirror != want && findGroupScan(geo, func(r, c int) bool { return occ(r, c) || c < want+width && c >= want }, 0, width, target, flagWidth, respect) == mirror {
				ties++
			}
		}
	}
	t.Logf("%d queries, %d ties, %d without a group", queries, ties, misses)
	if ties < 100 || misses < 100 {
		t.Fatalf("only %d ties and %d misses in %d queries: the random rows no longer exercise both", ties, misses, queries)
	}
}
