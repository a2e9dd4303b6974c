package grid

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/circuit"
)

// insertFeedCellsShift is the per-group insertion InsertFeedCells
// replaced, kept as its oracle: each group rescans its row for a cell
// spanning the target and shifts every cell at or right of the insertion
// point, the feed cells of earlier groups included.
func insertFeedCellsShift(ckt *circuit.Circuit, groups []FeedGroupSpec) (*circuit.Circuit, [][]int, error) {
	perRow := make([][]int, ckt.Rows)
	total := make([]int, ckt.Rows)
	for _, gr := range groups {
		if gr.Row < 0 || gr.Row >= ckt.Rows {
			return nil, nil, fmt.Errorf("grid: insert row %d out of range", gr.Row)
		}
		if gr.Width < 1 {
			return nil, nil, fmt.Errorf("grid: insert width %d < 1", gr.Width)
		}
		perRow[gr.Row] = append(perRow[gr.Row], gr.Width)
		total[gr.Row] += gr.Width
	}
	f := 0
	for _, t := range total {
		if t > f {
			f = t
		}
	}
	for r, t := range total {
		if t != f {
			return nil, nil, fmt.Errorf("grid: row %d inserts %d pitches, others insert %d; pad with 1-wide groups", r, t, f)
		}
	}
	if f == 0 {
		return ckt.Clone(), make([][]int, ckt.Rows), nil
	}
	out := ckt.Clone()
	feedType := feedTypeIndex(out)
	insertedCols := make([][]int, ckt.Rows)
	for r := 0; r < ckt.Rows; r++ {
		widths := perRow[r]
		k := len(widths)
		if k == 0 {
			continue
		}
		var rowCells []int
		for i := range out.Cells {
			if out.Cells[i].Row == r {
				rowCells = append(rowCells, i)
			}
		}
		slices.SortFunc(rowCells, func(a, b int) int { return out.Cells[a].Col - out.Cells[b].Col })
		targets := make([]int, k)
		for i := range targets {
			targets[i] = (i + 1) * ckt.Cols / (k + 1)
		}
		shift := 0
		for gi := range widths {
			w := widths[gi]
			at := snapToGapScan(out, rowCells, targets[gi]+shift)
			for _, idx := range rowCells {
				if out.Cells[idx].Col >= at {
					out.Cells[idx].Col += w
				}
			}
			for j := 0; j < w; j++ {
				out.Cells = append(out.Cells, circuit.Cell{
					Name: fmt.Sprintf("_feed_%d", len(out.Cells)),
					Type: feedType, Row: r, Col: at + j,
				})
				rowCells = append(rowCells, len(out.Cells)-1)
			}
			insertedCols[r] = append(insertedCols[r], at)
			shift += w
		}
	}
	out.Cols = ckt.Cols + f
	for i := range out.Ext {
		for j, col := range out.Ext[i].Cols {
			out.Ext[i].Cols[j] = col * out.Cols / ckt.Cols
			if out.Ext[i].Cols[j] >= out.Cols {
				out.Ext[i].Cols[j] = out.Cols - 1
			}
		}
	}
	if err := out.ValidateGeometry(); err != nil {
		return nil, nil, fmt.Errorf("grid: insertion produced invalid circuit: %w", err)
	}
	return out, insertedCols, nil
}

// snapToGapScan returns the insertion column nearest to target that no
// cell of rowCells spans, ties to the right, by scanning the whole row.
func snapToGapScan(ckt *circuit.Circuit, rowCells []int, target int) int {
	if target < 0 {
		target = 0
	}
	for _, idx := range rowCells {
		cell := &ckt.Cells[idx]
		w := ckt.Lib[cell.Type].Width
		if cell.Col < target && target < cell.Col+w {
			left, right := cell.Col, cell.Col+w
			if right-target <= target-left {
				return right
			}
			return left
		}
	}
	return target
}

// randomRows builds a circuit of 1–4 rows packed with cells 1–5 pitches
// wide (a 1-pitch feed type among them) and random gaps, with a few
// external terminals, and a random insertion request: every row gets the
// same total, split into groups of 1–3 pitches, sometimes more groups
// than the row has columns.
func randomRows(rng *rand.Rand) (*circuit.Circuit, []FeedGroupSpec) {
	ckt := &circuit.Circuit{
		Name: "rows", Tech: circuit.DefaultTech, Rows: 1 + rng.Intn(4),
		Lib: []circuit.CellType{
			{Name: "FEED", Width: 1, Feed: true},
			{Name: "A", Width: 1}, {Name: "B", Width: 2}, {Name: "C", Width: 3}, {Name: "D", Width: 5},
		},
		Nets: []circuit.Net{{Name: "n", Pitch: 1}},
	}
	gap := rng.Intn(3)
	rowLen := make([]int, ckt.Rows)
	for r := range rowLen {
		for col, n := 0, 3+rng.Intn(20); n > 0; n-- {
			col += rng.Intn(gap + 1)
			t := rng.Intn(len(ckt.Lib))
			ckt.Cells = append(ckt.Cells, circuit.Cell{Name: fmt.Sprintf("c%d", len(ckt.Cells)), Type: t, Row: r, Col: col})
			col += ckt.Lib[t].Width
			rowLen[r] = col
		}
	}
	ckt.Cols = slices.Max(rowLen) + rng.Intn(3)
	for i := 0; i < 3; i++ {
		ckt.Ext = append(ckt.Ext, circuit.ExtPin{Name: fmt.Sprintf("e%d", i), Net: 0, Dir: circuit.Out, Cols: []int{rng.Intn(ckt.Cols)}})
	}
	f := 1 + rng.Intn(ckt.Cols)
	if rng.Intn(4) == 0 {
		f = ckt.Cols + 1 + rng.Intn(2*ckt.Cols)
	}
	var groups []FeedGroupSpec
	for r := 0; r < ckt.Rows; r++ {
		for left := f; left > 0; {
			w := 1
			if rng.Intn(3) == 0 {
				w = 1 + rng.Intn(min(3, left))
			}
			groups = append(groups, FeedGroupSpec{Row: r, Width: w})
			left -= w
		}
	}
	rng.Shuffle(len(groups), func(i, j int) {
		if groups[i].Row != groups[j].Row {
			groups[i], groups[j] = groups[j], groups[i]
		}
	})
	return ckt, groups
}

// TestInsertFeedCellsMatchesShift compares the one-pass insertion with the
// per-group shift on random rows and group sets: the widened circuits and
// the returned columns must be equal. Groups that land at or inside the
// group before them, and rows with more groups than columns, must occur.
func TestInsertFeedCellsMatchesShift(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	landedAt, landedInside, crowded, refused := 0, 0, 0, 0
	for i := 0; i < 400; i++ {
		ckt, groups := randomRows(rng)
		if err := ckt.ValidateGeometry(); err != nil {
			t.Fatalf("case %d: fixture invalid: %v", i, err)
		}
		want, wantCols, wantErr := insertFeedCellsShift(ckt, groups)
		got, gotCols, err := InsertFeedCells(ckt, groups)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("case %d: error %v, shift gives %v", i, err, wantErr)
		}
		if err != nil {
			refused++
			continue
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotCols, wantCols) {
			t.Fatalf("case %d: groups %v\ngot  %v %v\nwant %v %v", i, groups, got.Cells, gotCols, want.Cells, wantCols)
		}
		for r := range wantCols {
			var widths []int
			for _, g := range groups {
				if g.Row == r {
					widths = append(widths, g.Width)
				}
			}
			if len(widths) > ckt.Cols {
				crowded++
			}
			for g := 1; g < len(widths); g++ {
				switch prev := wantCols[r][g-1]; {
				case wantCols[r][g] == prev:
					landedAt++
				case wantCols[r][g] < prev+widths[g-1]:
					landedInside++
				}
			}
		}
	}
	t.Logf("%d groups landed at and %d inside the group before; %d rows had more groups than columns; %d of 400 requests refused by both",
		landedAt, landedInside, crowded, refused)
	if landedAt == 0 || landedInside == 0 || crowded == 0 {
		t.Fatal("the random group sets no longer exercise landing at or inside a group, or crowded rows")
	}
}
