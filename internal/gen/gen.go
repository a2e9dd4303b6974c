// Package gen synthesizes bipolar standard-cell test circuits of the kind
// the paper evaluates on (NTT 10-Gbit/s transmission-system chips C1-C3,
// which are proprietary). The generator reproduces the structural features
// the router's heuristics exercise: levelized register-bounded logic,
// scarce feedthrough positions, multi-row nets, multi-tap terminals,
// differential pairs, a wide clock, and tight path constraints derived
// from the half-perimeter lower bound.
//
// Placements come in the paper's two styles: P1 distributes the free feed
// cells evenly along each row; P2 sweeps them aside to the row ends to
// show the value of even spacing.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/dgraph"
	"repro/internal/lowerbound"
)

// PlacementStyle selects the paper's P1 or P2 feed-cell arrangement.
type PlacementStyle int

const (
	// P1 spaces feed cells evenly between logic cells.
	P1 PlacementStyle = iota
	// P2 pushes all feed cells to the right end of each row.
	P2
)

func (s PlacementStyle) String() string {
	if s == P1 {
		return "P1"
	}
	return "P2"
}

// Params controls circuit synthesis.
type Params struct {
	Name string
	Seed int64

	Cells int // logic cells (excluding feed cells and diff pairs)
	Rows  int

	SeqFrac   float64 // fraction of cells that are flip-flops
	AvgFanout float64 // mean extra sinks per driven net
	Locality  int     // how far back (in placement rank) drivers are drawn from

	PIs, POs  int // external input/output pads
	DiffPairs int // differential driver/receiver pairs (§4.1)
	WideClock bool

	FeedFrac float64 // feed cells per row, as a fraction of the row's cells
	Style    PlacementStyle

	Constraints int
	// LimitFactor sets every constraint's limit to LimitFactor times its
	// half-perimeter lower-bound delay (Table 3's reference).
	LimitFactor float64

	// Datapath switches to bit-sliced synthesis (one bit per row, staged
	// pipeline, vertical control broadcasts); DiffPairs is ignored there.
	Datapath bool

	// MultiSink makes roughly a third of the constraints use several sink
	// terminals (the paper's T_P is a set). Off in the presets to keep
	// the recorded tables stable.
	MultiSink bool
}

// Dataset returns the preset parameters of the paper-style data sets
// C1P1, C1P2, C2P1, C2P2, C3P1 (Table 1).
func Dataset(name string) (Params, error) {
	base := map[string]Params{
		"C1": {Cells: 240, Rows: 6, Seed: 101, Constraints: 8, DiffPairs: 3, PIs: 12, POs: 10},
		"C2": {Cells: 480, Rows: 8, Seed: 202, Constraints: 12, DiffPairs: 5, PIs: 16, POs: 14},
		"C3": {Cells: 860, Rows: 10, Seed: 303, Constraints: 18, DiffPairs: 8, PIs: 20, POs: 18},
	}
	if len(name) != 4 {
		return Params{}, fmt.Errorf("gen: unknown data set %q", name)
	}
	p, ok := base[name[:2]]
	if !ok {
		return Params{}, fmt.Errorf("gen: unknown circuit %q", name[:2])
	}
	switch name[2:] {
	case "P1":
		p.Style = P1
	case "P2":
		p.Style = P2
	default:
		return Params{}, fmt.Errorf("gen: unknown placement %q", name[2:])
	}
	p.Name = name
	p.SeqFrac = 0.18
	p.AvgFanout = 1.6
	p.Locality = 24
	p.FeedFrac = 0.20
	p.WideClock = true
	p.LimitFactor = 1.15
	return p, nil
}

// DatasetNames lists the paper's five data sets in Table 1/2 order.
func DatasetNames() []string {
	return []string{"C1P1", "C1P2", "C2P1", "C2P2", "C3P1"}
}

// StressParams is a circuit well beyond the paper's scale (≈2000 logic
// cells), used by the scalability test and bench.
func StressParams() Params {
	return Params{
		Name: "stress", Seed: 777, Cells: 2000, Rows: 14,
		SeqFrac: 0.18, AvgFanout: 1.6, Locality: 30,
		PIs: 30, POs: 26, DiffPairs: 12, WideClock: true,
		FeedFrac: 0.2, Constraints: 30, LimitFactor: 1.15,
		Style: P1,
	}
}

// Library cell-type indices, in the order Lib returns them.
const (
	tINV = iota
	tBUF
	tNOR2
	tNOR3
	tOR2
	tDFF
	tDRV2
	tRCV2
	tFEED
)

// Lib is the generator's ECL-flavoured library. Delay numbers are in the
// regime of late-era bipolar gates: intrinsic delays around 60-120 ps,
// fan-in loads of 10-30 fF, drive factors a fraction of a ps per fF.
func Lib() []circuit.CellType {
	return []circuit.CellType{
		{Name: "INV", Width: 2, Pins: []circuit.PinDef{
			in("A", 0, 18),
			out("Z", []int{1}, 0.32, 0.24),
		}, Arcs: arcs("A", "Z", 88)},
		{Name: "BUF", Width: 3, Pins: []circuit.PinDef{
			in("A", 0, 16),
			out("Z", []int{0, 2}, 0.14, 0.11), // dual tap
		}, Arcs: arcs("A", "Z", 68)},
		{Name: "NOR2", Width: 3, Pins: []circuit.PinDef{
			in("A", 0, 22), in("B", 1, 22),
			out("Z", []int{2}, 0.28, 0.21),
		}, Arcs: append(arcs("A", "Z", 94), arcs("B", "Z", 99)...)},
		{Name: "NOR3", Width: 4, Pins: []circuit.PinDef{
			in("A", 0, 24), in("B", 1, 24), in("C", 2, 24),
			out("Z", []int{1, 3}, 0.30, 0.23), // dual tap
		}, Arcs: append(append(arcs("A", "Z", 102), arcs("B", "Z", 108)...), arcs("C", "Z", 113)...)},
		{Name: "OR2", Width: 3, Pins: []circuit.PinDef{
			in("A", 0, 20), in("B", 1, 20),
			out("Z", []int{2}, 0.27, 0.20),
		}, Arcs: append(arcs("A", "Z", 90), arcs("B", "Z", 96)...)},
		{Name: "DFF", Width: 5, Sequential: true, Pins: []circuit.PinDef{
			in("D", 0, 24), in("CK", 2, 12),
			out("Q", []int{3, 4}, 0.24, 0.19), // dual tap
		}},
		{Name: "DRV2", Width: 4, Pins: []circuit.PinDef{
			in("A", 0, 20),
			out("Q", []int{2}, 0.17, 0.14),
			out("QB", []int{3}, 0.17, 0.14),
		}, Arcs: append(arcs("A", "Q", 84), arcs("A", "QB", 84)...)},
		{Name: "RCV2", Width: 4, Pins: []circuit.PinDef{
			in("IN", 1, 25), in("INB", 2, 25),
			out("Z", []int{3}, 0.26, 0.20),
		}, Arcs: append(arcs("IN", "Z", 74), arcs("INB", "Z", 74)...)},
		{Name: "FEED", Width: 1, Feed: true},
	}
}

func in(name string, off int, fin float64) circuit.PinDef {
	return circuit.PinDef{Name: name, Dir: circuit.In, Side: circuit.Bottom, Offsets: []int{off}, Fin: fin}
}

func out(name string, offs []int, tf, td float64) circuit.PinDef {
	return circuit.PinDef{Name: name, Dir: circuit.Out, Side: circuit.Top, Offsets: offs, Tf: tf, Td: td}
}

func arcs(from, to string, t0 float64) []circuit.Arc {
	return []circuit.Arc{{From: from, To: to, T0: t0}}
}

// Generate synthesizes a circuit. The result always validates. It refuses
// a LimitFactor that is not a positive number and a negative count of
// pads, differential pairs or constraints.
func Generate(p Params) (*circuit.Circuit, error) {
	if p.Cells < 10 || p.Rows < 2 {
		return nil, fmt.Errorf("gen: need at least 10 cells and 2 rows")
	}
	if !(p.LimitFactor > 0) || math.IsInf(p.LimitFactor, 1) {
		return nil, fmt.Errorf("gen: limit factor %v must be a finite positive number", p.LimitFactor)
	}
	if p.PIs < 0 || p.POs < 0 || p.DiffPairs < 0 || p.Constraints < 0 {
		return nil, fmt.Errorf("gen: negative count: %d PIs, %d POs, %d differential pairs, %d constraints",
			p.PIs, p.POs, p.DiffPairs, p.Constraints)
	}
	if p.AvgFanout <= 0 {
		p.AvgFanout = 1.5
	}
	if p.Locality <= 0 {
		p.Locality = 20
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := &builder{p: p, rng: rng, ckt: &circuit.Circuit{
		Name: p.Name, Tech: circuit.DefaultTech, Rows: p.Rows, Lib: Lib(),
	}}
	if p.Datapath {
		if err := g.buildDatapath(); err != nil {
			return nil, err
		}
	} else {
		g.pickCells()
		g.place()
		g.wire()
	}
	if err := g.constraints(); err != nil {
		return nil, err
	}
	if err := g.ckt.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated circuit invalid: %w", err)
	}
	return g.ckt, nil
}

type builder struct {
	p   Params
	rng *rand.Rand
	ckt *circuit.Circuit

	ranks   []int // cell index per rank (logic cells only)
	diffDrv []int // DRV2 cell indices
	diffRcv []int
	dffs    []int
}

func (g *builder) cellWidth(ti int) int { return g.ckt.Lib[ti].Width }

// pickCells chooses types for the logic cells plus the diff-pair cells.
func (g *builder) pickCells() {
	combTypes := []int{tINV, tBUF, tNOR2, tNOR3, tOR2}
	weights := []int{2, 2, 4, 2, 3}
	wsum := 0
	for _, w := range weights {
		wsum += w
	}
	for i := 0; i < g.p.Cells; i++ {
		ti := tDFF
		if g.rng.Float64() >= g.p.SeqFrac {
			r := g.rng.Intn(wsum)
			for k, w := range weights {
				if r < w {
					ti = combTypes[k]
					break
				}
				r -= w
			}
		}
		idx := len(g.ckt.Cells)
		g.ckt.Cells = append(g.ckt.Cells, circuit.Cell{Name: fmt.Sprintf("u%04d", idx), Type: ti})
		g.ranks = append(g.ranks, idx)
		if ti == tDFF {
			g.dffs = append(g.dffs, idx)
		}
	}
	for d := 0; d < g.p.DiffPairs; d++ {
		di := len(g.ckt.Cells)
		g.ckt.Cells = append(g.ckt.Cells, circuit.Cell{Name: fmt.Sprintf("dd%02d", d), Type: tDRV2})
		ri := len(g.ckt.Cells)
		g.ckt.Cells = append(g.ckt.Cells, circuit.Cell{Name: fmt.Sprintf("dr%02d", d), Type: tRCV2})
		g.diffDrv = append(g.diffDrv, di)
		g.diffRcv = append(g.diffRcv, ri)
	}
}

// place lays the cells out snake-wise across the rows and inserts the free
// feed cells per the placement style.
func (g *builder) place() {
	ckt := g.ckt
	// Distribute all cells (logic in rank order, then diff cells spread
	// in) across rows.
	order := append([]int{}, g.ranks...)
	for i := range g.diffDrv {
		// Drivers and receivers interleave into the sequence so pairs land
		// in adjacent rows most of the time.
		pos := (i + 1) * len(order) / (len(g.diffDrv) + 1)
		order = append(order[:pos], append([]int{g.diffDrv[i], g.diffRcv[i]}, order[pos:]...)...)
	}
	perRow := (len(order) + ckt.Rows - 1) / ckt.Rows
	rows := make([][]int, ckt.Rows)
	for i, cell := range order {
		r := i / perRow
		if r >= ckt.Rows {
			r = ckt.Rows - 1
		}
		if r%2 == 1 {
			// snake: odd rows fill right-to-left
			rows[r] = append([]int{cell}, rows[r]...)
		} else {
			rows[r] = append(rows[r], cell)
		}
	}
	// Feed cells per row.
	feedIdx := func(r, k int) int {
		idx := len(ckt.Cells)
		ckt.Cells = append(ckt.Cells, circuit.Cell{Name: fmt.Sprintf("fd%02d_%03d", r, k), Type: tFEED})
		return idx
	}
	maxWidth := 0
	rowSeqs := make([][]int, ckt.Rows)
	for r := range rows {
		nFeeds := int(float64(len(rows[r]))*g.p.FeedFrac + 0.999)
		if nFeeds < 1 {
			nFeeds = 1
		}
		seq := append([]int{}, rows[r]...)
		if g.p.Style == P1 && len(seq) > 0 {
			// Insert feeds evenly between cells.
			step := float64(len(seq)+1) / float64(nFeeds+1)
			for k := nFeeds - 1; k >= 0; k-- {
				at := int(step * float64(k+1))
				if at > len(seq) {
					at = len(seq)
				}
				fi := feedIdx(r, k)
				seq = append(seq[:at], append([]int{fi}, seq[at:]...)...)
			}
		} else {
			for k := 0; k < nFeeds; k++ {
				seq = append(seq, feedIdx(r, k))
			}
		}
		rowSeqs[r] = seq
		w := 0
		for _, c := range seq {
			w += g.cellWidth(ckt.Cells[c].Type)
		}
		if w > maxWidth {
			maxWidth = w
		}
	}
	ckt.Cols = maxWidth + 4
	for r, seq := range rowSeqs {
		col := 0
		for _, c := range seq {
			ckt.Cells[c].Row = r
			ckt.Cells[c].Col = col
			col += g.cellWidth(ckt.Cells[c].Type)
		}
	}
}

// drvInfo describes a candidate driver for net synthesis.
type drvInfo struct {
	ref  circuit.PinRef
	rank int
}

// dist is the physical cost of wiring cell `to` from a driver: row
// crossings are far more expensive than horizontal distance, matching the
// scarcity of bipolar feedthroughs.
func (g *builder) dist(d drvInfo, to int) int {
	a, b := &g.ckt.Cells[d.ref.Cell], &g.ckt.Cells[to]
	dr, dc := a.Row-b.Row, a.Col-b.Col
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr*40 + dc
}

// pickLocal samples up to k pool entries and returns the physically
// nearest one.
func (g *builder) pickLocal(pool []drvInfo, to, k int) drvInfo {
	best := pool[g.rng.Intn(len(pool))]
	bd := g.dist(best, to)
	for i := 1; i < k && i < len(pool); i++ {
		c := pool[g.rng.Intn(len(pool))]
		if d := g.dist(c, to); d < bd {
			best, bd = c, d
		}
	}
	return best
}

// wire connects every input pin to a driver, creates the pads, the clock,
// and the differential nets.
func (g *builder) wire() {
	ckt := g.ckt
	var drivers []drvInfo // combinational outputs + DFF Q outputs, by rank
	rankOf := make(map[int]int)
	for rank, cell := range g.ranks {
		rankOf[cell] = rank
	}
	for rank, cell := range g.ranks {
		ct := ckt.CellTypeOf(cell)
		for pi := range ct.Pins {
			if ct.Pins[pi].Dir == circuit.Out {
				drivers = append(drivers, drvInfo{circuit.PinRef{Cell: cell, Pin: pi}, rank})
			}
		}
	}
	netOf := map[circuit.PinRef]int{} // driver -> net index
	netFor := func(drv circuit.PinRef) int {
		if n, ok := netOf[drv]; ok {
			return n
		}
		n := len(ckt.Nets)
		ckt.Nets = append(ckt.Nets, circuit.Net{
			Name:  fmt.Sprintf("n%04d", n),
			Pitch: 1, DiffMate: circuit.NoNet,
			Pins: []circuit.PinRef{drv},
		})
		netOf[drv] = n
		return n
	}

	// External input pads feed rank-0-ish logic.
	piNets := make([]int, 0, g.p.PIs)
	for i := 0; i < g.p.PIs; i++ {
		n := len(ckt.Nets)
		ckt.Nets = append(ckt.Nets, circuit.Net{Name: fmt.Sprintf("pi%02d", i), Pitch: 1, DiffMate: circuit.NoNet})
		col1 := g.rng.Intn(ckt.Cols)
		col2 := g.rng.Intn(ckt.Cols)
		ckt.Ext = append(ckt.Ext, circuit.ExtPin{
			Name: fmt.Sprintf("PI%02d", i), Net: n, Side: circuit.Bottom,
			Cols: dedupCols(col1, col2), Dir: circuit.In, Tf: 0.2, Td: 0.15,
		})
		piNets = append(piNets, n)
	}

	// Connect every combinational input and every DFF D input.
	for rank, cell := range g.ranks {
		ct := ckt.CellTypeOf(cell)
		for pi := range ct.Pins {
			pd := &ct.Pins[pi]
			if pd.Dir != circuit.In || pd.Name == "CK" {
				continue
			}
			ref := circuit.PinRef{Cell: cell, Pin: pi}
			if ct.Sequential {
				// D inputs may be driven from any logic output (register
				// boundaries cut timing cycles); stay physically local.
				if len(drivers) > 0 {
					d := g.pickLocal(drivers, cell, 9)
					nn := netFor(d.ref)
					ckt.Nets[nn].Pins = append(ckt.Nets[nn].Pins, ref)
					continue
				}
			}
			// Combinational inputs: drivers of strictly lower rank with a
			// locality bias, else a PI pad.
			var pool []drvInfo
			lo := rank - g.p.Locality
			for _, d := range drivers {
				dRank := d.rank
				seq := ckt.Lib[ckt.Cells[d.ref.Cell].Type].Sequential
				if seq || (dRank < rank && dRank >= lo) {
					pool = append(pool, d)
				}
			}
			usePI := len(pool) == 0 || g.rng.Float64() < 0.12
			if usePI && len(piNets) > 0 {
				// Nearest pad by column keeps pad nets short.
				bestPI, bd := -1, 1<<30
				for k := 0; k < 4; k++ {
					i := g.rng.Intn(len(piNets))
					col := ckt.Ext[extOfNet(ckt, piNets[i])].Cols[0]
					d := col - ckt.Cells[cell].Col
					if d < 0 {
						d = -d
					}
					d += ckt.Cells[cell].Row * 40
					if d < bd {
						bestPI, bd = i, d
					}
				}
				ckt.Nets[piNets[bestPI]].Pins = append(ckt.Nets[piNets[bestPI]].Pins, ref)
				continue
			}
			if len(pool) == 0 {
				continue
			}
			d := g.pickLocal(pool, cell, 9)
			if !ckt.Lib[ckt.Cells[d.ref.Cell].Type].Sequential && rankOf[d.ref.Cell] >= rank {
				continue
			}
			nn := netFor(d.ref)
			ckt.Nets[nn].Pins = append(ckt.Nets[nn].Pins, ref)
		}
	}

	// Differential pairs: pick a driver for each DRV2.A, wire Q->IN and
	// QB->INB, terminate RCV2.Z in an output pad.
	for i := range g.diffDrv {
		drvCell, rcvCell := g.diffDrv[i], g.diffRcv[i]
		lt := ckt.CellTypeOf(drvCell)
		aRef := circuit.PinRef{Cell: drvCell, Pin: lt.PinIndex("A")}
		if len(drivers) > 0 {
			d := g.pickLocal(drivers, drvCell, 9)
			nn := netFor(d.ref)
			ckt.Nets[nn].Pins = append(ckt.Nets[nn].Pins, aRef)
		} else if len(piNets) > 0 {
			n := piNets[0]
			ckt.Nets[n].Pins = append(ckt.Nets[n].Pins, aRef)
		}
		rt := ckt.CellTypeOf(rcvCell)
		q := len(ckt.Nets)
		ckt.Nets = append(ckt.Nets, circuit.Net{
			Name: fmt.Sprintf("dq%02d", i), Pitch: 1, DiffMate: q + 1,
			Pins: []circuit.PinRef{
				{Cell: drvCell, Pin: lt.PinIndex("Q")},
				{Cell: rcvCell, Pin: rt.PinIndex("IN")},
			},
		})
		ckt.Nets = append(ckt.Nets, circuit.Net{
			Name: fmt.Sprintf("dqb%02d", i), Pitch: 1, DiffMate: q,
			Pins: []circuit.PinRef{
				{Cell: drvCell, Pin: lt.PinIndex("QB")},
				{Cell: rcvCell, Pin: rt.PinIndex("INB")},
			},
		})
		zNet := netFor(circuit.PinRef{Cell: rcvCell, Pin: rt.PinIndex("Z")})
		ckt.Ext = append(ckt.Ext, circuit.ExtPin{
			Name: fmt.Sprintf("DO%02d", i), Net: zNet, Side: circuit.Top,
			Cols: dedupCols(g.rng.Intn(ckt.Cols), g.rng.Intn(ckt.Cols)),
			Dir:  circuit.Out, Fin: 28,
		})
	}

	// Clock: one pad to every DFF CK pin; optionally a 2-pitch wire.
	if len(g.dffs) > 0 {
		n := len(ckt.Nets)
		pitch := 1
		if g.p.WideClock {
			pitch = 2
		}
		net := circuit.Net{Name: "clk", Pitch: pitch, DiffMate: circuit.NoNet}
		for _, cell := range g.dffs {
			ct := ckt.CellTypeOf(cell)
			net.Pins = append(net.Pins, circuit.PinRef{Cell: cell, Pin: ct.PinIndex("CK")})
		}
		ckt.Nets = append(ckt.Nets, net)
		ckt.Ext = append(ckt.Ext, circuit.ExtPin{
			Name: "CKIN", Net: n, Side: circuit.Bottom,
			Cols: dedupCols(ckt.Cols/2, ckt.Cols/2+3), Dir: circuit.In, Tf: 0.08, Td: 0.06,
		})
	}

	// Output pads on a sample of still-unloaded outputs, plus enough to
	// reach the requested count.
	pos := 0
	loaded := map[circuit.PinRef]bool{}
	for n := range ckt.Nets {
		if len(ckt.Nets[n].Pins) > 0 {
			loaded[ckt.Nets[n].Pins[0]] = true
		}
	}
	for _, d := range drivers {
		if pos >= g.p.POs {
			break
		}
		n, driven := netOf[d.ref]
		if !driven {
			continue
		}
		if len(ckt.Nets[n].Pins) > 1 && g.rng.Float64() < 0.8 {
			continue
		}
		ckt.Ext = append(ckt.Ext, circuit.ExtPin{
			Name: fmt.Sprintf("PO%02d", pos), Net: n, Side: circuit.Top,
			Cols: dedupCols(g.rng.Intn(ckt.Cols), g.rng.Intn(ckt.Cols)),
			Dir:  circuit.Out, Fin: 30,
		})
		pos++
	}

	// Drop nets that never got a sink (outputs nobody listens to): invalid
	// single-terminal nets must not remain.
	g.compactNets()
}

// compactNets removes single-terminal nets and remaps indices.
func (g *builder) compactNets() {
	ckt := g.ckt
	keep := make([]bool, len(ckt.Nets))
	for n := range ckt.Nets {
		terms := 0
		terms += len(ckt.Nets[n].Pins)
		for i := range ckt.Ext {
			if ckt.Ext[i].Net == n {
				terms++
			}
		}
		keep[n] = terms >= 2
	}
	remap := make([]int, len(ckt.Nets))
	var nets []circuit.Net
	for n := range ckt.Nets {
		if keep[n] {
			remap[n] = len(nets)
			nets = append(nets, ckt.Nets[n])
		} else {
			remap[n] = -1
		}
	}
	for i := range nets {
		if m := nets[i].DiffMate; m != circuit.NoNet {
			nets[i].DiffMate = remap[m]
		}
	}
	var exts []circuit.ExtPin
	for i := range ckt.Ext {
		if remap[ckt.Ext[i].Net] != -1 {
			e := ckt.Ext[i]
			e.Net = remap[e.Net]
			exts = append(exts, e)
		}
	}
	ckt.Nets = nets
	ckt.Ext = exts
}

// constraints picks register/pad-bounded paths and limits them at
// LimitFactor times their lower-bound delay.
func (g *builder) constraints() error {
	ckt := g.ckt
	if g.p.Constraints == 0 {
		return nil
	}
	// Sources: external input pads and DFF Q outputs that drive nets.
	// Sinks: DFF D inputs and external output pads.
	idx := ckt.BuildPinNetIndex()
	var sources, sinks []circuit.PinRef
	for i := range ckt.Ext {
		if ckt.Ext[i].Dir == circuit.In && ckt.Ext[i].Name != "CKIN" {
			sources = append(sources, circuit.Ext(i))
		} else if ckt.Ext[i].Dir == circuit.Out {
			sinks = append(sinks, circuit.Ext(i))
		}
	}
	for _, cell := range g.dffs {
		ct := ckt.CellTypeOf(cell)
		q := circuit.PinRef{Cell: cell, Pin: ct.PinIndex("Q")}
		if idx.Contains(q) {
			sources = append(sources, q)
		}
		d := circuit.PinRef{Cell: cell, Pin: ct.PinIndex("D")}
		if idx.Contains(d) {
			sinks = append(sinks, d)
		}
	}
	if len(sources) == 0 || len(sinks) == 0 {
		return fmt.Errorf("gen: no constraint endpoints available")
	}
	// Reachability over the (constraint-free) delay graph, computed once
	// per sampled source.
	dg, err := dgraph.New(ckt)
	if err != nil {
		return err
	}
	reach := map[int][]bool{} // source index -> reachable vertex set
	tried := map[[2]int]bool{}
	for attempts := 0; len(ckt.Cons) < g.p.Constraints && attempts < 200*g.p.Constraints; attempts++ {
		si := g.rng.Intn(len(sources))
		ti := g.rng.Intn(len(sinks))
		if tried[[2]int{si, ti}] {
			continue
		}
		tried[[2]int{si, ti}] = true
		r, ok := reach[si]
		if !ok {
			r = dg.Reachable(sources[si])
			reach[si] = r
		}
		sinkV := dg.VertexOf(sinks[ti])
		srcV := dg.VertexOf(sources[si])
		if sinkV < 0 || !r[sinkV] || sinkV == srcV {
			continue // unreachable or degenerate pair
		}
		to := []circuit.PinRef{sinks[ti]}
		if g.p.MultiSink && g.rng.Intn(3) == 0 {
			// Add up to two more reachable sinks: T_P as a set.
			for extra := 0; extra < 2; extra++ {
				tj := g.rng.Intn(len(sinks))
				v := dg.VertexOf(sinks[tj])
				if v < 0 || !r[v] || v == srcV || containsRef(to, sinks[tj]) {
					continue
				}
				to = append(to, sinks[tj])
			}
		}
		ckt.Cons = append(ckt.Cons, circuit.Constraint{
			Name: fmt.Sprintf("P%02d", len(ckt.Cons)),
			From: []circuit.PinRef{sources[si]},
			To:   to,
			// Provisional limit; finalized from the lower bound below.
			Limit: 1,
		})
	}
	if len(ckt.Cons) == 0 {
		return fmt.Errorf("gen: could not find any constrained path")
	}
	// Final limits from the HPWL lower bound.
	perCons, _, err := lowerbound.Delay(ckt)
	if err != nil {
		return err
	}
	for p := range ckt.Cons {
		ckt.Cons[p].Limit = perCons[p] * g.p.LimitFactor
	}
	return nil
}

// containsRef reports whether a terminal is already in the slice.
func containsRef(set []circuit.PinRef, ref circuit.PinRef) bool {
	for _, r := range set {
		if r == ref {
			return true
		}
	}
	return false
}

// extOfNet returns the index of the external pin attached to a net
// (assuming one exists, as for pad nets).
func extOfNet(ckt *circuit.Circuit, net int) int {
	for i := range ckt.Ext {
		if ckt.Ext[i].Net == net {
			return i
		}
	}
	return 0
}

func dedupCols(a, b int) []int {
	if a == b {
		return []int{a}
	}
	if a > b {
		a, b = b, a
	}
	return []int{a, b}
}
