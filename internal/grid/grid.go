// Package grid provides the chip-geometry substrate for the global router:
// cell rows on a column grid, routing channels between rows, feedthrough
// slots supplied by feed cells, physical coordinates, and the feed-cell
// insertion mechanics of Harada & Kitazawa §4.3 that widen the chip to
// guarantee complete feedthrough assignment.
package grid

import (
	"fmt"
	"slices"

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

// SetFlag sets the width flag of the feed slot at (row, col). It reports
// whether such a slot exists.
func (g *Geometry) SetFlag(row, col, flag int) bool {
	for i := range g.Feeds[row] {
		if g.Feeds[row][i].Col == col {
			g.Feeds[row][i].Flag = flag
			return true
		}
	}
	return false
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
	insertedCols := make([][]int, ckt.Rows)

	for r := 0; r < ckt.Rows; r++ {
		widths := perRow[r]
		k := len(widths)
		if k == 0 {
			continue
		}
		// Cells of this row in the widened circuit, sorted by column.
		var rowCells []int
		for i := range out.Cells {
			if out.Cells[i].Row == r {
				rowCells = append(rowCells, i)
			}
		}
		slices.SortFunc(rowCells, func(a, b int) int { return out.Cells[a].Col - out.Cells[b].Col })

		// Choose evenly spaced target columns and snap to the nearest
		// legal gap; process left to right so shifts accumulate simply.
		targets := make([]int, k)
		for i := range targets {
			targets[i] = (i + 1) * ckt.Cols / (k + 1)
		}
		shift := 0
		for gi := range widths {
			w := widths[gi]
			at := snapToGap(out, rowCells, targets[gi]+shift)
			// Shift every cell of this row at or right of the insertion
			// point (including feed cells inserted by earlier groups).
			for _, idx := range rowCells {
				if out.Cells[idx].Col >= at {
					out.Cells[idx].Col += w
				}
			}
			for j := 0; j < w; j++ {
				// Index-based names stay unique even when insertion runs
				// again on an already-widened circuit (multi-round §4.3).
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

// feedTypeIndex finds or adds a feed cell type.
func feedTypeIndex(ckt *circuit.Circuit) int {
	for i := range ckt.Lib {
		if ckt.Lib[i].Feed {
			return i
		}
	}
	ckt.Lib = append(ckt.Lib, circuit.CellType{Name: "_FEED", Width: 1, Feed: true})
	return len(ckt.Lib) - 1
}

// snapToGap returns the smallest insertion column >= 0 nearest to target
// that does not split a cell of the row: a column c is legal when no cell
// spans across it (cell.Col < c < cell.Col+width). rowCells are the indices
// of the row's cells sorted by column.
func snapToGap(ckt *circuit.Circuit, rowCells []int, target int) int {
	if target < 0 {
		target = 0
	}
	// Cells of a row never overlap, so at most one spans across the
	// target; its two edges are then the nearest legal columns on either
	// side (abutting neighbours end exactly at an edge, never across it).
	// One pass over the row replaces the probe-per-column search, which
	// re-scanned every cell at each probe distance.
	for _, idx := range rowCells {
		cell := &ckt.Cells[idx]
		w := ckt.Lib[cell.Type].Width
		if cell.Col < target && target < cell.Col+w {
			left, right := cell.Col, cell.Col+w
			// Ties go right, matching the old search's +d-before-−d order.
			if right-target <= target-left {
				return right
			}
			return left
		}
	}
	return target
}
