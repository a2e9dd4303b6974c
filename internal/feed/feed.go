// Package feed implements the feedthrough and external-terminal assignment
// stage of Harada & Kitazawa §3.1 and the feed-cell insertion of §4.3.
//
// For every net that crosses cell rows, one feedthrough position per
// crossed row is assigned, searching outward from the center of the net's
// terminal x coordinates and keeping multi-row assignments column-aligned
// when possible. Nets are processed in the caller-supplied order (the
// router orders by ascending static slack). Differential pairs are treated
// as 2-pitch nets and receive adjacent slots; w-pitch nets receive w
// adjacent slots.
//
// If any net cannot be assigned, feed cells are inserted: the shortfall
// F(w,r) is counted per row and width, previously assigned w-pitch slots
// are width-flagged, all assignments are canceled, F(w,r) groups of w feed
// cells plus enough single feed cells to widen every row by the common
// total F are inserted almost evenly, and the assignment is repeated with
// width flags enforced — which is guaranteed to succeed.
package feed

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/circuit"
	"repro/internal/grid"
	"repro/internal/rgraph"
)

// Result is a completed feedthrough assignment.
type Result struct {
	// Ckt is the circuit the assignment refers to; when feed cells had to
	// be inserted it is a widened copy of the input.
	Ckt *circuit.Circuit
	// Geo is the geometry of Ckt with width flags as used by the final
	// assignment pass.
	Geo *grid.Geometry
	// Feeds[n] lists net n's assigned feedthroughs (leftmost column for
	// multi-pitch nets), one per crossed row.
	Feeds [][]rgraph.FeedPos
	// AddedPitches is the paper's F: the number of columns every row was
	// widened by (0 when the first pass succeeded).
	AddedPitches int
}

// Assign runs the full assignment, inserting feed cells when needed. order
// lists net indices in processing order (ascending static slack per the
// paper); nets absent from order are processed last in index order.
//
// Every slot search walks outward from its target (FindGroup), and each
// insertion round places a row's feed-cell groups in one left-to-right
// pass, because an insertion point never lies left of the one before it
// (grid.InsertFeedCells).
//
// The paper's single re-assignment is guaranteed by its counting argument;
// because our even-spacing insertion can in rare cases split a reserved
// adjacent group, the insert-and-retry step is allowed to repeat a bounded
// number of times, each round widening the chip further. On the 264
// routings of docs/PERF.md's prephase check a second round ran in 5, each
// time for one 2-pitch group in one row; none needed a third.
func Assign(ckt *circuit.Circuit, order []int) (*Result, error) {
	full := completeOrder(ckt, order)
	cur := ckt
	geo, err := grid.New(cur)
	if err != nil {
		return nil, err
	}
	respect := false
	added := 0
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		p := newPass(cur, geo, respect)
		p.run(full)
		if len(p.shortfall) == 0 {
			return &Result{Ckt: cur, Geo: geo, Feeds: p.feeds, AddedPitches: added}, nil
		}
		var insErr error
		cur, geo, insErr = insertForShortfall(cur, geo, p, &added)
		if insErr != nil {
			return nil, insErr
		}
		respect = true
	}
	return nil, fmt.Errorf("feed: assignment did not converge after %d insertion rounds", maxRounds)
}

// insertForShortfall performs the §4.3 widening for one failed pass:
// counts F(w,r), inserts flagged feed-cell groups, and re-creates flags
// (both for the inserted groups and for the original slots that carried
// wide nets in the failed pass).
func insertForShortfall(ckt *circuit.Circuit, geo *grid.Geometry, p *pass, added *int) (*circuit.Circuit, *grid.Geometry, error) {
	maxRowNeed := 0 // F = max_r F(r), F(r) = Σ_w w·F(w,r)
	rowNeed := make([]int, ckt.Rows)
	for _, s := range p.shortfall {
		rowNeed[s.row] += s.width * s.count
	}
	for _, need := range rowNeed {
		if need > maxRowNeed {
			maxRowNeed = need
		}
	}
	var groups []grid.FeedGroupSpec
	groupFlags := make([][]int, ckt.Rows) // row -> flag per requested group, in order
	for r := 0; r < ckt.Rows; r++ {
		var widths []int
		for _, s := range p.shortfall {
			if s.row == r && s.width >= 2 {
				for i := 0; i < s.count; i++ {
					widths = append(widths, s.width)
				}
			}
		}
		sort.Ints(widths)
		for _, w := range widths {
			groups = append(groups, grid.FeedGroupSpec{Row: r, Width: w})
			groupFlags[r] = append(groupFlags[r], w)
		}
		singles := p.shortfallAt(r, 1) + maxRowNeed - rowNeed[r]
		for i := 0; i < singles; i++ {
			groups = append(groups, grid.FeedGroupSpec{Row: r, Width: 1})
			groupFlags[r] = append(groupFlags[r], 1)
		}
	}
	// Carry the current flags across the widening: remember them per feed
	// cell (cell indices survive the clone).
	type flagMemo struct{ row, cell, offset, flag int }
	var memo []flagMemo
	for r := 0; r < ckt.Rows; r++ {
		for _, s := range geo.FeedSlots(r) {
			if s.Flag != 0 {
				memo = append(memo, flagMemo{r, s.Cell, s.Col - ckt.Cells[s.Cell].Col, s.Flag})
			}
		}
	}
	wideCkt, insertedCols, err := grid.InsertFeedCells(ckt, groups)
	if err != nil {
		return nil, nil, fmt.Errorf("feed: inserting cells: %w", err)
	}
	wideGeo, err := grid.New(wideCkt)
	if err != nil {
		return nil, nil, err
	}
	// A feed cell keeps its index, row and type across the widening, so
	// its slot at offset o is column Col+o of its new position.
	colOfCell := func(cell, offset int) int { return wideCkt.Cells[cell].Col + offset }
	for _, m := range memo {
		if !wideGeo.SetFlag(m.row, colOfCell(m.cell, m.offset), m.flag) {
			return nil, nil, fmt.Errorf("feed: lost flag on cell %d after widening", m.cell)
		}
	}
	for r, flags := range groupFlags {
		for gi, flag := range flags {
			at := insertedCols[r][gi]
			width := flag
			if width < 1 {
				width = 1
			}
			for j := 0; j < width; j++ {
				if !wideGeo.SetFlag(r, at+j, flag) {
					return nil, nil, fmt.Errorf("feed: inserted slot (%d,%d) missing", r, at+j)
				}
			}
		}
	}
	for _, res := range p.reserved {
		if !wideGeo.SetFlag(res.row, colOfCell(res.cell, res.offset), res.flag) {
			return nil, nil, fmt.Errorf("feed: reserved slot for cell %d not found after widening", res.cell)
		}
	}
	*added += maxRowNeed
	return wideCkt, wideGeo, nil
}

func completeOrder(ckt *circuit.Circuit, order []int) []int {
	seen := make([]bool, len(ckt.Nets))
	out := make([]int, 0, len(ckt.Nets))
	for _, n := range order {
		if n >= 0 && n < len(ckt.Nets) && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for n := range ckt.Nets {
		if !seen[n] {
			out = append(out, n)
		}
	}
	return out
}

type shortKey struct{ row, width int }

// shortfallCount is one F(w,r) counter. The counters live in a slice (in
// first-shortfall order) rather than a map so every sweep over them is
// deterministic; the handful of distinct (row,width) keys makes the
// linear scans cheap.
type shortfallCount struct {
	shortKey
	count int
}

type reservation struct {
	row, cell, offset, flag int
}

type pass struct {
	ckt          *circuit.Circuit
	geo          *grid.Geometry
	respectFlags bool

	occupied  []bool // (row*cols + col) slot taken; row-major flat grid
	cols      int
	feeds     [][]rgraph.FeedPos
	shortfall []shortfallCount
	reserved  []reservation
	done      []bool
	walk      []rgraph.FeedPos // run's Walk buffer, reused net after net
}

// addShortfall counts one unassignable width-w feedthrough in row r.
func (p *pass) addShortfall(row, width int) {
	for i := range p.shortfall {
		if p.shortfall[i].row == row && p.shortfall[i].width == width {
			p.shortfall[i].count++
			return
		}
	}
	p.shortfall = append(p.shortfall, shortfallCount{shortKey{row: row, width: width}, 1})
}

// shortfallAt returns F(width,row), zero when the pass never fell short.
func (p *pass) shortfallAt(row, width int) int {
	for _, s := range p.shortfall {
		if s.row == row && s.width == width {
			return s.count
		}
	}
	return 0
}

func newPass(ckt *circuit.Circuit, geo *grid.Geometry, respectFlags bool) *pass {
	return &pass{
		ckt: ckt, geo: geo, respectFlags: respectFlags,
		occupied: make([]bool, ckt.Rows*ckt.Cols),
		cols:     ckt.Cols,
		feeds:    make([][]rgraph.FeedPos, len(ckt.Nets)),
		done:     make([]bool, len(ckt.Nets)),
	}
}

func (p *pass) run(order []int) {
	for _, n := range order {
		if p.done[n] {
			continue
		}
		width, left, right := Group(p.ckt, n)
		lo, hi, target := ChannelSpan(p.ckt, n)
		p.walk = Walk(p.walk[:0], p.geo, p.occupiedAt, lo, hi, width, target, p.respectFlags)
		for _, f := range p.walk {
			if f.Col < 0 {
				p.addShortfall(f.Row, width)
				continue
			}
			p.take(f.Row, f.Col, width)
			p.feeds[left] = append(p.feeds[left], f)
			if right != circuit.NoNet {
				p.feeds[right] = append(p.feeds[right], rgraph.FeedPos{Row: f.Row, Col: f.Col + 1})
			}
		}
		p.done[left] = true
		if right != circuit.NoNet {
			p.done[right] = true
		}
	}
}

func (p *pass) occupiedAt(row, col int) bool { return p.occupied[row*p.cols+col] }

// Group returns the width of net n's feedthrough group and which net
// takes its left column. A plain net is its own group of Pitch slots
// (left is n, right is NoNet). A differential pair is one 2-pitch group
// (§4.1): the half whose terminals lie left takes column col and its mate
// col+1. Validate makes every position of the mate the net's position
// plus one constant shift, so the two terminal centers differ by exactly
// that shift and their order tells the halves apart.
func Group(ckt *circuit.Circuit, n int) (width, left, right int) {
	mate := ckt.Nets[n].DiffMate
	if mate == circuit.NoNet {
		return ckt.Nets[n].Pitch, n, circuit.NoNet
	}
	_, _, cn := ChannelSpan(ckt, n)
	_, _, cm := ChannelSpan(ckt, mate)
	if cm < cn {
		return 2, mate, n
	}
	return 2, n, mate
}

// Walk is the §3.1 row walk of one feedthrough group over rows lo..hi-1:
// each row takes the free group of width slots nearest target
// (FindGroup), and the next row aims at the column just found, keeping
// the net column-aligned across rows. It appends one {Row, Col} per row
// to dst and returns it. Col is -1 where a row has no free group; the
// target then stays where it was. Walk takes nothing: the caller claims
// the slots it keeps.
func Walk(dst []rgraph.FeedPos, geo *grid.Geometry, occupied func(row, col int) bool, lo, hi, width, target int, respectFlags bool) []rgraph.FeedPos {
	for r := lo; r < hi; r++ {
		col := FindGroup(geo, occupied, r, width, target, width, respectFlags)
		dst = append(dst, rgraph.FeedPos{Row: r, Col: col})
		if col >= 0 {
			target = col
		}
	}
	return dst
}

// ChannelSpan returns the lowest and highest channel the net's terminals
// touch, and the mean terminal column (the §3.1 search center). The
// router's reroute-time feed re-assignment uses it too. The net's
// terminals are its pads and its pins, which are disjoint (Validate
// refuses a pad among net pins), so it walks both without building a
// terminal list.
func ChannelSpan(ckt *circuit.Circuit, net int) (minCh, maxCh int, center int) {
	minCh, maxCh = math.MaxInt32, -1
	sum, cnt := 0, 0
	var buf [8]circuit.Position
	visit := func(t circuit.PinRef) {
		for _, pos := range ckt.AppendPositionsOf(buf[:0], t) {
			minCh = min(minCh, pos.Channel)
			maxCh = max(maxCh, pos.Channel)
			sum += pos.Col
			cnt++
		}
	}
	for i := range ckt.Ext {
		if ckt.Ext[i].Net == net {
			visit(circuit.Ext(i))
		}
	}
	for _, p := range ckt.Nets[net].Pins {
		visit(p)
	}
	if cnt > 0 {
		center = sum / cnt
	}
	return minCh, maxCh, center
}

// FindGroup locates the group of `width` adjacent free feed slots in a row
// whose center is nearest to target, honoring §4.3 width flags when
// respectFlags is set. occupied reports taken slots. It returns the
// leftmost column, or -1 when no group exists.
//
// The search runs outward from the target (§3.1). Feed slots have
// distinct columns, so window centers strictly increase along the row: a
// binary search finds the first window centered at or right of the
// target, and the walk then tries the nearer of the next window on either
// side until one is free. At equal distance the left window wins, the
// window a scan from the left end of the row would keep.
func FindGroup(geo *grid.Geometry, occupied func(row, col int) bool, row, width, target, flagWidth int, respectFlags bool) int {
	slots := geo.FeedSlots(row)
	last := len(slots) - width // rightmost window start
	centerOff := (width - 1) / 2
	r := sort.Search(last+1, func(i int) bool { return slots[i].Col+centerOff >= target })
	l := r - 1
	free := func(i int) bool {
		for j := 0; j < width; j++ {
			s := slots[i+j]
			if s.Col != slots[i].Col+j || occupied(row, s.Col) {
				return false
			}
			if respectFlags && !flagCompatible(s.Flag, flagWidth) {
				return false
			}
		}
		return true
	}
	for l >= 0 || r <= last {
		if r > last || l >= 0 && target-(slots[l].Col+centerOff) <= slots[r].Col+centerOff-target {
			if free(l) {
				return slots[l].Col
			}
			l--
			continue
		}
		if free(r) {
			return slots[r].Col
		}
		r++
	}
	return -1
}

// flagCompatible implements the §4.3 width-flag rule of the second pass:
// single-pitch nets use unflagged or 1-flagged slots; w-pitch nets (and
// differential pairs, which count as width 2) use only w-flagged slots.
func flagCompatible(flag, width int) bool {
	if width <= 1 {
		return flag <= 1
	}
	return flag == width
}

func (p *pass) take(row, col, width int) {
	for j := 0; j < width; j++ {
		p.occupied[row*p.cols+col+j] = true
	}
	if width >= 2 && !p.respectFlags {
		// Remember the slots for width-flagging if insertion is needed.
		// The group's slots are adjacent, from the one at col on.
		slots := p.geo.FeedSlots(row)
		i := p.geo.SlotIndex(row, col)
		for _, s := range slots[i : i+width] {
			cellCol := p.ckt.Cells[s.Cell].Col
			p.reserved = append(p.reserved, reservation{row: row, cell: s.Cell, offset: s.Col - cellCol, flag: width})
		}
	}
}
