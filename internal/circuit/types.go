// Package circuit models bipolar standard-cell circuits for global routing:
// a cell library with capacitance-delay parameters, a placed netlist,
// differential-drive pairs, multi-pitch nets, external (chip I/O) terminals,
// and path-based timing constraints.
//
// The model follows Harada & Kitazawa (DAC 1994), §2: the delay of a signal
// propagating from an input terminal ti through an output terminal to is
//
//	Tpd = T0(ti,to) + (Σ Fin(t))·Tf(to) + CL(n)·Td(to)
//
// where T0 is the intrinsic cell delay, Fin the fan-in capacitance of each
// fan-out terminal, Tf the fan-in delay factor, Td the unit-capacitance
// delay, and CL(n) the wiring capacitance of net n.
//
// Units: length µm, capacitance fF, delay ps, delay factors ps/fF.
package circuit

import "fmt"

// PinDir distinguishes input terminals (signal sinks) from output terminals
// (signal drivers).
type PinDir int

const (
	// In marks a pin that receives a signal.
	In PinDir = iota
	// Out marks a pin that drives a net.
	Out
)

func (d PinDir) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Side tells which edge of a cell row a pin is accessible from, and hence
// which routing channel serves it. A Bottom pin of row r is reached from
// channel r; a Top pin of row r from channel r+1.
type Side int

const (
	// Bottom is the lower edge of a cell (or the lower chip boundary for
	// external terminals).
	Bottom Side = iota
	// Top is the upper edge of a cell (or the upper chip boundary).
	Top
)

func (s Side) String() string {
	if s == Bottom {
		return "bottom"
	}
	return "top"
}

// PinDef describes one logical terminal of a cell type.
//
// A pin may expose several equivalent physical positions (Offsets), e.g. an
// ECL emitter-follower output with multiple taps. The router connects the
// terminal to exactly one of them via zero-weight correspondence edges in
// the routing graph (paper Fig. 3); multiple positions are what create the
// cycles the edge-deletion scheme resolves.
type PinDef struct {
	Name    string
	Dir     PinDir
	Side    Side
	Offsets []int // candidate x offsets within the cell, in column pitches

	// Fin is the fan-in capacitance presented by this terminal when it is
	// a fan-out of some net (inputs only), in fF.
	Fin float64
	// Tf is the fan-in delay factor of this terminal when it drives a net
	// (outputs only), in ps/fF.
	Tf float64
	// Td is the unit wiring-capacitance delay of this terminal when it
	// drives a net (outputs only), in ps/fF.
	Td float64
}

// Arc is an intrinsic-delay arc through a cell, from an input pin to an
// output pin, with delay T0 in ps.
type Arc struct {
	From string // input pin name
	To   string // output pin name
	T0   float64
}

// CellType is a library cell. Width is in column pitches. Sequential cell
// types (registers) carry no combinational arcs: timing paths end at their
// inputs and begin at their outputs, with clock-to-Q folded into the
// constraint limits.
type CellType struct {
	Name       string
	Width      int
	Pins       []PinDef
	Arcs       []Arc
	Sequential bool
	Feed       bool // pure feedthrough cell: no pins, provides one column of feedthrough per pitch
}

// PinIndex returns the index of the named pin, or -1.
func (ct *CellType) PinIndex(name string) int {
	for i := range ct.Pins {
		if ct.Pins[i].Name == name {
			return i
		}
	}
	return -1
}

// Cell is a placed instance. Col is the leftmost column it occupies.
type Cell struct {
	Name string
	Type int // index into Circuit.Lib
	Row  int
	Col  int
}

// PinRef identifies a terminal. Cell >= 0 refers to Circuit.Cells[Cell] pin
// index Pin; Cell == ExtCell refers to Circuit.Ext[Pin].
type PinRef struct {
	Cell int
	Pin  int
}

// ExtCell is the sentinel Cell value marking an external-terminal PinRef.
const ExtCell = -1

// IsExt reports whether the reference names an external terminal.
func (p PinRef) IsExt() bool { return p.Cell == ExtCell }

// Ext builds a PinRef for external terminal index i.
func Ext(i int) PinRef { return PinRef{Cell: ExtCell, Pin: i} }

// NoNet marks a net index field as unset.
const NoNet = -1

// Net is a signal net. Pins lists the connected cell terminals; the driver
// is either the unique external In pad attached to the net or, failing
// that, Pins[0] (which must then be an Out pin).
//
// Pitch is the wire width in routing pitches (§4.2): a w-pitch net occupies
// w adjacent feedthrough positions and contributes weight w to channel
// density. DiffMate links differential-drive pairs (§4.1); both nets of a
// pair must be structurally parallel.
type Net struct {
	Name     string
	Pins     []PinRef
	Pitch    int
	DiffMate int // index of the paired net, or NoNet
}

// ExtPin is an external terminal (chip I/O) with one or more candidate
// boundary positions (paper Fig. 3 shows external terminals with several
// positions joined by correspondence edges).
type ExtPin struct {
	Name string
	Net  int
	Side Side  // Bottom: lower chip edge (channel 0); Top: upper edge (channel Rows)
	Cols []int // candidate columns
	Dir  PinDir

	Fin float64 // load if Dir==Out (output pad receiving the signal)
	Tf  float64 // drive factors if Dir==In (input pad driving the net)
	Td  float64
}

// Constraint is a critical-path constraint P = (S_P, T_P, τ_P): every path
// from a source terminal in From to a sink terminal in To must have delay
// at most Limit ps (§2.2).
type Constraint struct {
	Name  string
	From  []PinRef
	To    []PinRef
	Limit float64
}

// Tech gathers the technology constants used to turn routed geometry into
// capacitance, delay and area.
type Tech struct {
	PitchX     float64 // column pitch, µm
	RowHeight  float64 // cell row height, µm
	TrackPitch float64 // channel track pitch, µm
	CapPerUm   float64 // wiring capacitance, fF/µm, for a 1-pitch wire
	BranchLen  float64 // nominal pin-to-spine jog length, µm
	// WideCap is the additional capacitance factor per extra pitch of
	// width: a w-pitch wire has CapPerUm·(1 + WideCap·(w-1)) fF/µm.
	WideCap float64
}

// DefaultTech is the technology used throughout the experiments.
var DefaultTech = Tech{
	PitchX:     10,
	RowHeight:  40,
	TrackPitch: 4,
	CapPerUm:   0.20,
	BranchLen:  8,
	WideCap:    0.6,
}

// Validate checks the technology constants for physical sense.
func (t Tech) Validate() error {
	switch {
	case t.PitchX <= 0:
		return fmt.Errorf("tech: pitchx %g must be positive", t.PitchX)
	case t.RowHeight <= 0:
		return fmt.Errorf("tech: rowheight %g must be positive", t.RowHeight)
	case t.TrackPitch <= 0:
		return fmt.Errorf("tech: trackpitch %g must be positive", t.TrackPitch)
	case t.CapPerUm <= 0:
		return fmt.Errorf("tech: capperum %g must be positive", t.CapPerUm)
	case t.BranchLen < 0:
		return fmt.Errorf("tech: branchlen %g must not be negative", t.BranchLen)
	case t.WideCap < 0:
		return fmt.Errorf("tech: widecap %g must not be negative", t.WideCap)
	}
	return nil
}

// WireCapPerUm returns the capacitance per µm of a wire of the given pitch
// width.
func (t Tech) WireCapPerUm(pitch int) float64 {
	if pitch < 1 {
		pitch = 1
	}
	return t.CapPerUm * (1 + t.WideCap*float64(pitch-1))
}

// Circuit is a placed bipolar standard-cell design ready for global
// routing.
type Circuit struct {
	Name string
	Tech Tech

	Lib   []CellType
	Cells []Cell
	Nets  []Net
	Ext   []ExtPin
	Cons  []Constraint

	Rows int // number of cell rows
	Cols int // chip width in column pitches
}

// CellTypeOf returns the library type of a placed cell.
func (c *Circuit) CellTypeOf(cell int) *CellType { return &c.Lib[c.Cells[cell].Type] }

// PinDefOf returns the definition behind a cell-terminal reference. It must
// not be called with an external reference.
func (c *Circuit) PinDefOf(ref PinRef) *PinDef {
	return &c.Lib[c.Cells[ref.Cell].Type].Pins[ref.Pin]
}

// PinName formats a terminal reference for humans, e.g. "u3.Z" or "CLKIN".
func (c *Circuit) PinName(ref PinRef) string {
	if ref.IsExt() {
		return c.Ext[ref.Pin].Name
	}
	return c.Cells[ref.Cell].Name + "." + c.PinDefOf(ref).Name
}

// DirOf returns the signal direction of a terminal with respect to the net:
// Out means it drives the net.
func (c *Circuit) DirOf(ref PinRef) PinDir {
	if ref.IsExt() {
		// An input pad drives its net.
		if c.Ext[ref.Pin].Dir == In {
			return Out
		}
		return In
	}
	return c.PinDefOf(ref).Dir
}

// FinOf returns the fan-in load a terminal presents as a net fan-out, fF.
func (c *Circuit) FinOf(ref PinRef) float64 {
	if ref.IsExt() {
		return c.Ext[ref.Pin].Fin
	}
	return c.PinDefOf(ref).Fin
}

// DriveOf returns (Tf, Td) of a driving terminal, ps/fF.
func (c *Circuit) DriveOf(ref PinRef) (tf, td float64) {
	if ref.IsExt() {
		e := &c.Ext[ref.Pin]
		return e.Tf, e.Td
	}
	d := c.PinDefOf(ref)
	return d.Tf, d.Td
}

// Driver returns the driving terminal of a net: the unique external In pad
// if present, otherwise the first Out cell pin.
func (c *Circuit) Driver(net int) (PinRef, error) {
	for i := range c.Ext {
		if c.Ext[i].Net == net && c.Ext[i].Dir == In {
			return Ext(i), nil
		}
	}
	for _, p := range c.Nets[net].Pins {
		if c.DirOf(p) == Out {
			return p, nil
		}
	}
	return PinRef{}, fmt.Errorf("circuit: net %q has no driver", c.Nets[net].Name)
}

// Terminals returns every terminal of a net, external pads included, with
// the driver first.
func (c *Circuit) Terminals(net int) []PinRef {
	return c.AppendTerminals(make([]PinRef, 0, len(c.Nets[net].Pins)+1), net)
}

// AppendTerminals appends the net's terminals to dst in Terminals order
// (driver first) and returns the extended slice. Allocation-free when dst
// has capacity.
func (c *Circuit) AppendTerminals(dst []PinRef, net int) []PinRef {
	var drv PinRef
	hasDrv := false
	if d, err := c.Driver(net); err == nil {
		drv, hasDrv = d, true
	}
	if hasDrv {
		dst = append(dst, drv)
	}
	for i := range c.Ext {
		if c.Ext[i].Net == net {
			r := Ext(i)
			if !hasDrv || r != drv {
				dst = append(dst, r)
			}
		}
	}
	for _, p := range c.Nets[net].Pins {
		if !hasDrv || p != drv {
			dst = append(dst, p)
		}
	}
	return dst
}

// Fanouts returns the non-driving terminals of a net.
func (c *Circuit) Fanouts(net int) []PinRef {
	ts := c.Terminals(net)
	if len(ts) == 0 {
		return nil
	}
	return ts[1:]
}

// FanoutLoad is Σ Fin(t) over the fan-out terminals of a net, fF.
func (c *Circuit) FanoutLoad(net int) float64 {
	var sum float64
	for _, t := range c.Fanouts(net) {
		sum += c.FinOf(t)
	}
	return sum
}

// NetOf returns the net a cell terminal belongs to, or NoNet. O(nets); use
// a PinNetIndex for bulk queries.
func (c *Circuit) NetOf(ref PinRef) int {
	if ref.IsExt() {
		return c.Ext[ref.Pin].Net
	}
	for n := range c.Nets {
		for _, p := range c.Nets[n].Pins {
			if p == ref {
				return n
			}
		}
	}
	return NoNet
}

// PinNetIndex maps every terminal to its net for O(1) lookup. Cell pins
// live in one flat array addressed by per-cell offsets — no hashing, no
// per-entry allocation.
type PinNetIndex struct {
	off  []int32 // per cell: start of its pin row in pins
	pins []int32 // net per (cell, pin), NoNet when unconnected
	ext  []int32 // net per external terminal, NoNet when unconnected
}

// Net returns the net a terminal belongs to, with ok reporting membership.
// Out-of-range references are simply not members.
func (idx *PinNetIndex) Net(ref PinRef) (int, bool) {
	var n int32 = NoNet
	if ref.IsExt() {
		if ref.Pin >= 0 && ref.Pin < len(idx.ext) {
			n = idx.ext[ref.Pin]
		}
	} else if ref.Cell >= 0 && ref.Cell+1 < len(idx.off) {
		row := idx.pins[idx.off[ref.Cell]:idx.off[ref.Cell+1]]
		if ref.Pin >= 0 && ref.Pin < len(row) {
			n = row[ref.Pin]
		}
	}
	return int(n), n != NoNet
}

// Contains reports whether the terminal is connected to any net.
func (idx *PinNetIndex) Contains(ref PinRef) bool {
	_, ok := idx.Net(ref)
	return ok
}

// BuildPinNetIndex indexes all net membership.
func (c *Circuit) BuildPinNetIndex() PinNetIndex {
	var idx PinNetIndex
	idx.off = make([]int32, len(c.Cells)+1)
	for ci := range c.Cells {
		idx.off[ci+1] = idx.off[ci] + int32(len(c.CellTypeOf(ci).Pins))
	}
	idx.pins = make([]int32, idx.off[len(c.Cells)])
	for i := range idx.pins {
		idx.pins[i] = NoNet
	}
	idx.ext = make([]int32, len(c.Ext))
	for i := range c.Ext {
		idx.ext[i] = int32(c.Ext[i].Net)
	}
	for n := range c.Nets {
		for _, p := range c.Nets[n].Pins {
			if p.IsExt() {
				if p.Pin >= 0 && p.Pin < len(idx.ext) {
					idx.ext[p.Pin] = int32(n)
				}
				continue
			}
			idx.pins[idx.off[p.Cell]+int32(p.Pin)] = int32(n)
		}
	}
	return idx
}

// Position is a physical terminal position: a channel index and a column.
type Position struct {
	Channel int
	Col     int
}

// PositionsOf returns the candidate physical positions of a terminal
// (paper Fig. 3: one terminal, several positions).
func (c *Circuit) PositionsOf(ref PinRef) []Position {
	if ref.IsExt() {
		return c.AppendPositionsOf(make([]Position, 0, len(c.Ext[ref.Pin].Cols)), ref)
	}
	return c.AppendPositionsOf(make([]Position, 0, len(c.PinDefOf(ref).Offsets)), ref)
}

// AppendPositionsOf appends the terminal's tap positions to dst in
// PositionsOf order and returns the extended slice. Allocation-free when
// dst has capacity.
func (c *Circuit) AppendPositionsOf(dst []Position, ref PinRef) []Position {
	if ref.IsExt() {
		e := &c.Ext[ref.Pin]
		ch := 0
		if e.Side == Top {
			ch = c.Rows
		}
		for _, col := range e.Cols {
			dst = append(dst, Position{Channel: ch, Col: col})
		}
		return dst
	}
	cell := &c.Cells[ref.Cell]
	def := c.PinDefOf(ref)
	ch := cell.Row
	if def.Side == Top {
		ch = cell.Row + 1
	}
	for _, off := range def.Offsets {
		dst = append(dst, Position{Channel: ch, Col: cell.Col + off})
	}
	return dst
}

// Channels returns the number of routing channels: one below each row plus
// one above the top row.
func (c *Circuit) Channels() int { return c.Rows + 1 }

// IsFeedCell reports whether cell i is a feed cell.
func (c *Circuit) IsFeedCell(i int) bool { return c.Lib[c.Cells[i].Type].Feed }

// Clone deep-copies the circuit so that feed-cell insertion can widen a
// copy without mutating the caller's design.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{Name: c.Name, Tech: c.Tech, Rows: c.Rows, Cols: c.Cols}
	out.Lib = make([]CellType, len(c.Lib))
	for i, ct := range c.Lib {
		nct := ct
		nct.Pins = make([]PinDef, len(ct.Pins))
		for j, p := range ct.Pins {
			np := p
			np.Offsets = append([]int(nil), p.Offsets...)
			nct.Pins[j] = np
		}
		nct.Arcs = append([]Arc(nil), ct.Arcs...)
		out.Lib[i] = nct
	}
	out.Cells = append([]Cell(nil), c.Cells...)
	out.Nets = make([]Net, len(c.Nets))
	for i, n := range c.Nets {
		nn := n
		nn.Pins = append([]PinRef(nil), n.Pins...)
		out.Nets[i] = nn
	}
	out.Ext = make([]ExtPin, len(c.Ext))
	for i, e := range c.Ext {
		ne := e
		ne.Cols = append([]int(nil), e.Cols...)
		out.Ext[i] = ne
	}
	out.Cons = make([]Constraint, len(c.Cons))
	for i, p := range c.Cons {
		np := p
		np.From = append([]PinRef(nil), p.From...)
		np.To = append([]PinRef(nil), p.To...)
		out.Cons[i] = np
	}
	return out
}
