// Package grid provides the chip-geometry substrate for the global router:
// cell rows on a column grid, routing channels between rows, feedthrough
// slots supplied by feed cells, physical coordinates, and the feed-cell
// insertion mechanics of Harada & Kitazawa §4.3 that widen the chip to
// guarantee complete feedthrough assignment.
package grid

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/circuit"
)

// FeedSlot is one column of feedthrough capacity in a cell row, provided by
// a feed cell. Flag restricts which nets may use it: 0 means unrestricted,
// w > 0 means reserved for w-pitch nets (§4.3 width flags).
type FeedSlot struct {
	Col  int
	Cell int // index of the providing feed cell in the circuit
	Flag int
}

// Geometry is the static routing geometry of a placed circuit.
type Geometry struct {
	Ckt *circuit.Circuit
	// Feeds[r] lists the feedthrough slots of row r, sorted by column.
	Feeds [][]FeedSlot
}

// New builds the geometry of a validated circuit. Feed cells contribute one
// feedthrough slot per pitch of width.
func New(ckt *circuit.Circuit) (*Geometry, error) {
	g := &Geometry{Ckt: ckt, Feeds: make([][]FeedSlot, ckt.Rows)}
	for i := range ckt.Cells {
		cell := &ckt.Cells[i]
		ct := &ckt.Lib[cell.Type]
		if ct.Feed {
			for w := 0; w < ct.Width; w++ {
				g.Feeds[cell.Row] = append(g.Feeds[cell.Row], FeedSlot{Col: cell.Col + w, Cell: i})
			}
			continue
		}
		for w := 0; w < ct.Width; w++ {
			if col := cell.Col + w; col < 0 || col >= ckt.Cols {
				return nil, fmt.Errorf("grid: cell %q column %d outside chip", cell.Name, col)
			}
		}
	}
	for r := range g.Feeds {
		slices.SortFunc(g.Feeds[r], func(a, b FeedSlot) int { return a.Col - b.Col })
	}
	return g, nil
}

// FeedSlots returns the feedthrough slots of a row, sorted by column.
func (g *Geometry) FeedSlots(row int) []FeedSlot { return g.Feeds[row] }

// SlotIndex returns the index in FeedSlots(row) of the slot at column col,
// or -1 when the row has no slot there. Slots have distinct columns, so a
// binary search finds it.
func (g *Geometry) SlotIndex(row, col int) int {
	slots := g.Feeds[row]
	i := sort.Search(len(slots), func(i int) bool { return slots[i].Col >= col })
	if i < len(slots) && slots[i].Col == col {
		return i
	}
	return -1
}

// SetFlag sets the width flag of the feed slot at (row, col). It reports
// whether such a slot exists.
func (g *Geometry) SetFlag(row, col, flag int) bool {
	i := g.SlotIndex(row, col)
	if i < 0 {
		return false
	}
	g.Feeds[row][i].Flag = flag
	return true
}

// SpanUm returns the physical length (µm) of the column interval
// [c1, c2] measured center to center.
func (g *Geometry) SpanUm(c1, c2 int) float64 {
	if c2 < c1 {
		c1, c2 = c2, c1
	}
	return float64(c2-c1) * g.Ckt.Tech.PitchX
}

// Channels returns the number of routing channels (rows + 1).
func (g *Geometry) Channels() int { return g.Ckt.Channels() }

// FeedGroupSpec asks for one contiguous group of feed cells of the given
// pitch width to be inserted into a row.
type FeedGroupSpec struct {
	Row   int
	Width int // number of adjacent feed cells; the group is flagged for Width-pitch nets
}

// InsertFeedCells returns a widened copy of the circuit with the requested
// feed-cell groups inserted, plus the per-row columns of the inserted
// groups (leftmost column of each group, in request order per row).
//
// Every row must receive the same total number of inserted pitches (the
// paper's F) so that rows stay aligned; the caller pads with 1-wide groups.
// Groups are spread "almost evenly" across each row: target positions are
// equally spaced and each group is placed at the nearest legal gap (not
// splitting a cell). Cells and external terminals to the right of an
// insertion point shift right; the chip widens by F columns.
//
// Within a row an insertion point never lies left of the previous one:
// each target lies right of the previous target, and a target still left
// of the previous insertion point lies inside the cell the previous
// target snapped right across, so it snaps to the same edge. So each
// group shifts a suffix of the row, and one left-to-right pass over the
// row's cells places every group. A group may land at, or inside, the group before
// it; it then shifts that group's cells (or the part right of it), and
// the earlier group's entry in the returned columns keeps the column it
// was inserted at. On the 12 large benchmark circuits (3000 cells, 18
// rows) 365 of 69,816 groups land at the group before them, none inside.
func InsertFeedCells(ckt *circuit.Circuit, groups []FeedGroupSpec) (*circuit.Circuit, [][]int, error) {
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
	out.Cells = slices.Grow(out.Cells, f*ckt.Rows)
	insertedCols := make([][]int, ckt.Rows)
	for r, cells := range rowCells(out) {
		insertedCols[r] = insertRow(out, cells, r, perRow[r], ckt.Cols, feedType)
	}
	// External terminals keep their columns valid in the wider chip; shift
	// those beyond the old midline proportionally so they stay near their
	// original relative location.
	out.Cols = ckt.Cols + f
	for i := range out.Ext {
		for j, col := range out.Ext[i].Cols {
			out.Ext[i].Cols[j] = col * out.Cols / ckt.Cols
			if out.Ext[i].Cols[j] >= out.Cols {
				out.Ext[i].Cols[j] = out.Cols - 1
			}
		}
	}
	// Insertion only moves cells and widens the chip; the netlist is
	// untouched, so the geometric recheck is sufficient (and this runs
	// inside the feed-assignment search loop, where the full Validate
	// dominated the profile).
	if err := out.ValidateGeometry(); err != nil {
		return nil, nil, fmt.Errorf("grid: insertion produced invalid circuit: %w", err)
	}
	return out, insertedCols, nil
}

// rowCells returns each row's cell indices sorted by column.
func rowCells(ckt *circuit.Circuit) [][]int {
	rows := make([][]int, ckt.Rows)
	for i := range ckt.Cells {
		r := ckt.Cells[i].Row
		rows[r] = append(rows[r], i)
	}
	for _, cells := range rows {
		slices.SortFunc(cells, func(a, b int) int { return ckt.Cells[a].Col - ckt.Cells[b].Col })
	}
	return rows
}

// insertRow inserts one row's groups of 1-pitch feed cells (cell type
// feedType) at evenly spaced targets over the row's cols columns, in one
// left-to-right pass, and returns each group's insertion column. cells
// are the row's original cells sorted by column.
//
// Insertion points never move left, so a cell left of the current one
// never moves again. shift is the width inserted so far: cells[next:],
// and the feed cells on pending, still sit right of every insertion
// point and hold their column minus shift in ckt.Cells until the pass
// moves them left of one (or ends) and adds shift back. pending is a
// stack of inserted feed cells with the leftmost on top: a new group
// lands left of every older pending feed cell, which it shifts.
func insertRow(ckt *circuit.Circuit, cells []int, row int, widths []int, cols, feedType int) []int {
	k := len(widths)
	insertedCols := make([]int, 0, k)
	var pending []int
	next, shift := 0, 0
	// colOf is the current column of the row's i-th original cell; the
	// columns ascend with i, since every shift moves a suffix of the row.
	colOf := func(i int) int {
		if i >= next {
			return ckt.Cells[cells[i]].Col + shift
		}
		return ckt.Cells[cells[i]].Col
	}
	for gi, w := range widths {
		at := (gi+1)*cols/(k+1) + shift
		// Snap to the nearest legal gap. Feed cells are one pitch wide,
		// so only an original cell can span the target, and at most one
		// does (cells never overlap): the last one starting left of it.
		// Ties go right.
		if i := sort.Search(len(cells), func(i int) bool { return colOf(i) >= at }) - 1; i >= 0 {
			left := colOf(i)
			if right := left + ckt.Lib[ckt.Cells[cells[i]].Type].Width; right > at {
				if right-at <= at-left {
					at = right
				} else {
					at = left
				}
			}
		}
		// Cells left of the insertion point are final; every cell at or
		// right of it shifts by w.
		for next < len(cells) && ckt.Cells[cells[next]].Col+shift < at {
			ckt.Cells[cells[next]].Col += shift
			next++
		}
		for len(pending) > 0 && ckt.Cells[pending[len(pending)-1]].Col+shift < at {
			ckt.Cells[pending[len(pending)-1]].Col += shift
			pending = pending[:len(pending)-1]
		}
		shift += w
		first := len(ckt.Cells)
		for j := 0; j < w; j++ {
			// Index-based names stay unique even when insertion runs
			// again on an already-widened circuit (multi-round §4.3).
			ckt.Cells = append(ckt.Cells, circuit.Cell{
				Name: "_feed_" + strconv.Itoa(len(ckt.Cells)),
				Type: feedType, Row: row, Col: at + j - shift,
			})
		}
		for j := w - 1; j >= 0; j-- {
			pending = append(pending, first+j)
		}
		insertedCols = append(insertedCols, at)
	}
	for _, i := range cells[next:] {
		ckt.Cells[i].Col += shift
	}
	for _, i := range pending {
		ckt.Cells[i].Col += shift
	}
	return insertedCols
}

// feedTypeIndex finds or adds the one-pitch feed cell type that inserted
// feed cells use.
func feedTypeIndex(ckt *circuit.Circuit) int {
	for i := range ckt.Lib {
		if ckt.Lib[i].Feed && ckt.Lib[i].Width == 1 {
			return i
		}
	}
	ckt.Lib = append(ckt.Lib, circuit.CellType{Name: "_FEED", Width: 1, Feed: true})
	return len(ckt.Lib) - 1
}
