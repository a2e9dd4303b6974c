package core

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
)

// conflictCircuit builds the canonical §3.4 tension: net X's driver has
// two taps, one (col 3) reaching the sink (col 10) over a congested span,
// the other (col 20) over a detour. A 3-pitch net Y congests columns
// 2..10, so the density conditions want to delete X's short trunk, while
// the delay criteria want to keep it. The constraint limit decides which
// criterion may speak.
func conflictCircuit(limit float64) *circuit.Circuit {
	c := &circuit.Circuit{Name: "conflict", Tech: circuit.DefaultTech, Rows: 2, Cols: 24}
	c.Lib = []circuit.CellType{
		{Name: "SRC", Width: 18, Pins: []circuit.PinDef{
			{Name: "Z", Dir: circuit.Out, Side: circuit.Top, Offsets: []int{0, 17}, Tf: 0.2, Td: 0.2},
		}},
		{Name: "SNK", Width: 2, Pins: []circuit.PinDef{
			{Name: "A", Dir: circuit.In, Side: circuit.Bottom, Offsets: []int{1}, Fin: 20},
		}},
		{Name: "YDRV", Width: 3, Pins: []circuit.PinDef{
			{Name: "Z", Dir: circuit.Out, Side: circuit.Bottom, Offsets: []int{2}, Tf: 0.2, Td: 0.2},
		}},
		{Name: "YSNK", Width: 2, Pins: []circuit.PinDef{
			{Name: "A", Dir: circuit.In, Side: circuit.Bottom, Offsets: []int{0}, Fin: 20},
		}},
	}
	c.Cells = []circuit.Cell{
		{Name: "src", Type: 0, Row: 0, Col: 3}, // taps in channel 1 at cols 3 and 20
		{Name: "snk", Type: 1, Row: 1, Col: 9}, // pin in channel 1 at col 10
		{Name: "yd", Type: 2, Row: 1, Col: 0},  // pin in channel 1 at col 2
		{Name: "ys", Type: 3, Row: 1, Col: 11}, // pin in channel 1 at col 11
	}
	c.Nets = []circuit.Net{
		{Name: "x", Pitch: 1, DiffMate: circuit.NoNet,
			Pins: []circuit.PinRef{{Cell: 0, Pin: 0}, {Cell: 1, Pin: 0}}},
		{Name: "y", Pitch: 3, DiffMate: circuit.NoNet,
			Pins: []circuit.PinRef{{Cell: 2, Pin: 0}, {Cell: 3, Pin: 0}}},
	}
	c.Cons = []circuit.Constraint{{
		Name: "P0", Limit: limit,
		From: []circuit.PinRef{{Cell: 0, Pin: 0}},
		To:   []circuit.PinRef{{Cell: 1, Pin: 0}},
	}}
	return c
}

// xDelay computes net x's arc delay for a given wire length.
func xDelay(t *testing.T, ckt *circuit.Circuit, lenUm float64) float64 {
	t.Helper()
	// Fin(snk.A)·Tf + CL·Td with the library numbers above.
	return 20*0.2 + lenUm*ckt.Tech.CapPerUm*0.2
}

const (
	shortLen = 70 + 2*8 // trunk 3->10 plus two branch stubs, µm
	longLen  = 100 + 2*8
)

func TestDelayCriteriaProtectCriticalRoute(t *testing.T) {
	// Tight limit: only the short route meets it. The §3.4 delay criteria
	// (Cd) must overrule the density conditions, which prefer deleting
	// the short trunk through the congested span.
	ckt := conflictCircuit(0)
	ckt.Cons[0].Limit = xDelay(t, ckt, shortLen) + 1 // just above the short route

	con := route(t, ckt, engine.Config{UseConstraints: true})
	if got := con.WirelenUm[0]; got > shortLen+1 {
		t.Fatalf("constrained route took the detour: %v µm, want %v", got, shortLen)
	}
	if con.Violations() != 0 {
		t.Fatalf("constrained run violated its constraint, margin %v", con.Margin(0))
	}

	unc := route(t, ckt, engine.Config{UseConstraints: false})
	if got := unc.WirelenUm[0]; got < longLen-1 {
		t.Fatalf("unconstrained route avoided the congestion-driven detour: %v µm, want %v", got, longLen)
	}
	// Both routes touch the congested column 10 where the sink sits, so
	// C_M is 4 either way, but the detour shrinks the congested plateau:
	// the unconstrained NC_M must be smaller.
	ncCon, ncUnc := con.Dens.Channel(1).NCM, unc.Dens.Channel(1).NCM
	if ncUnc >= ncCon {
		t.Fatalf("unconstrained NC_M %d not below constrained %d (detour did not relieve the plateau)", ncUnc, ncCon)
	}
}

func TestAreaFirstOrderingTradesDelayForDensity(t *testing.T) {
	// Loose limit: both routes meet it (Cd = 0 either way), so only the
	// Gl criterion distinguishes them. The paper ordering consults Gl
	// before density and keeps the short route; the A1 area-first
	// ordering consults density first and takes the detour.
	ckt := conflictCircuit(0)
	ckt.Cons[0].Limit = xDelay(t, ckt, longLen) + 100 // both routes fit

	paper := route(t, ckt, engine.Config{UseConstraints: true})
	if got := paper.WirelenUm[0]; got > shortLen+1 {
		t.Fatalf("paper ordering took the detour: %v µm", got)
	}
	areaFirst := route(t, ckt, engine.Config{UseConstraints: true, AreaFirst: true})
	if got := areaFirst.WirelenUm[0]; got < longLen-1 {
		t.Fatalf("area-first ordering kept the short route: %v µm, want the detour", got)
	}
	if areaFirst.Violations() != 0 {
		t.Fatal("area-first run must still meet the loose constraint")
	}
	// The area-first run shrinks the congested plateau (both routes touch
	// the sink column, so C_M itself ties at 4).
	if ncA, ncP := areaFirst.Dens.Channel(1).NCM, paper.Dens.Channel(1).NCM; ncA >= ncP {
		t.Fatalf("area-first NC_M %d not below paper NC_M %d", ncA, ncP)
	}
}

func TestConflictCircuitValidates(t *testing.T) {
	if err := conflictCircuit(500).Validate(); err != nil {
		t.Fatal(err)
	}
}
