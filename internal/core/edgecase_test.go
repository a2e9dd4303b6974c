package core

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/rgraph"
)

// wideNetCircuit builds a circuit with a 3-pitch net that must cross a
// row: three adjacent feed slots are needed, and only insertion provides
// them.
func wideNetCircuit() *circuit.Circuit {
	c := &circuit.Circuit{Name: "wide3", Tech: circuit.DefaultTech, Rows: 2, Cols: 30}
	c.Lib = []circuit.CellType{
		{Name: "DRV", Width: 3, Pins: []circuit.PinDef{
			{Name: "Z", Dir: circuit.Out, Side: circuit.Top, Offsets: []int{1}, Tf: 0.1, Td: 0.1},
		}},
		{Name: "SNK", Width: 3, Pins: []circuit.PinDef{
			{Name: "A", Dir: circuit.In, Side: circuit.Top, Offsets: []int{1}, Fin: 40},
		}},
		{Name: "FEED", Width: 1, Feed: true},
	}
	c.Cells = []circuit.Cell{
		{Name: "d", Type: 0, Row: 0, Col: 4},   // Z in channel 1
		{Name: "s", Type: 1, Row: 1, Col: 12},  // A in channel 2
		{Name: "f0", Type: 2, Row: 1, Col: 2},  // one lonely slot in row 1
		{Name: "f1", Type: 2, Row: 0, Col: 20}, // and one in row 0
	}
	c.Nets = []circuit.Net{{
		Name: "w", Pitch: 3, DiffMate: circuit.NoNet,
		Pins: []circuit.PinRef{{Cell: 0, Pin: 0}, {Cell: 1, Pin: 0}},
	}}
	c.Cons = []circuit.Constraint{{
		Name: "P0", Limit: 1000,
		From: []circuit.PinRef{{Cell: 0, Pin: 0}},
		To:   []circuit.PinRef{{Cell: 1, Pin: 0}},
	}}
	return c
}

func TestWidePitchNetCrossesRow(t *testing.T) {
	ckt := wideNetCircuit()
	if err := ckt.Validate(); err != nil {
		t.Fatal(err)
	}
	res := route(t, ckt, engine.Config{UseConstraints: true})
	if res.AddedPitches < 3 {
		t.Fatalf("AddedPitches = %d, want >= 3 (a 3-wide group)", res.AddedPitches)
	}
	feeds := res.Feeds[0]
	if len(feeds) != 1 {
		t.Fatalf("feeds = %v, want one crossing", feeds)
	}
	// The three columns must all be slots.
	for j := 0; j < 3; j++ {
		found := false
		for _, s := range res.Geo.FeedSlots(feeds[0].Row) {
			if s.Col == feeds[0].Col+j {
				found = true
			}
		}
		if !found {
			t.Fatalf("column %d of the wide group is not a slot", feeds[0].Col+j)
		}
	}
	// Density: the wide net weighs 3 wherever its trunks run.
	g := res.Graphs[0]
	for _, e := range g.AliveEdges() {
		ed := &g.Edges[e]
		if ed.Kind == rgraph.ETrunk && ed.X1 < ed.X2 {
			if got := res.Dens.ProfileM(ed.Ch)[ed.X1]; got < 3 {
				t.Fatalf("density %d under a 3-pitch trunk", got)
			}
		}
	}
}

func TestSingleRowChip(t *testing.T) {
	// One row, two channels, no feedthroughs possible or needed.
	c := &circuit.Circuit{Name: "onerow", Tech: circuit.DefaultTech, Rows: 1, Cols: 20, Lib: circuit.SampleLib()}
	c.Cells = []circuit.Cell{
		{Name: "b", Type: circuit.SampleBUF, Row: 0, Col: 2},
		{Name: "i", Type: circuit.SampleINV, Row: 0, Col: 10},
		{Name: "f", Type: circuit.SampleFEED, Row: 0, Col: 7},
	}
	c.Nets = []circuit.Net{
		{Name: "a", Pitch: 1, DiffMate: circuit.NoNet,
			Pins: []circuit.PinRef{{Cell: 0, Pin: 1}, {Cell: 1, Pin: 0}}}, // b.Z (ch1) -> i.A (ch0): crosses row 0
		{Name: "in", Pitch: 1, DiffMate: circuit.NoNet,
			Pins: []circuit.PinRef{{Cell: 0, Pin: 0}}},
	}
	c.Ext = []circuit.ExtPin{
		{Name: "I", Net: 1, Side: circuit.Bottom, Cols: []int{0}, Dir: circuit.In, Tf: 0.2, Td: 0.2},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	res := route(t, c, engine.Config{UseConstraints: true})
	for n, g := range res.Graphs {
		if !g.IsTree() {
			t.Fatalf("net %d not a tree", n)
		}
	}
}

func TestElmoreConvergesToLumpedAtZeroR(t *testing.T) {
	ckt := circuit.SampleSmall()
	lum := route(t, ckt, engine.Config{UseConstraints: true})
	elm := route(t, ckt, engine.Config{UseConstraints: true, DelayModel: engine.Elmore, RPerUm: 0})
	// With zero wire resistance the Elmore wire term vanishes and the two
	// models agree exactly (same topology, same lumped terms).
	if math.Abs(lum.Delay-elm.Delay) > 1e-9 {
		t.Fatalf("r=0 Elmore delay %v != lumped %v", elm.Delay, lum.Delay)
	}
}

func TestCoincidentTerminals(t *testing.T) {
	// A net whose pad and pin share a column (zero horizontal extent).
	c := &circuit.Circuit{Name: "coincident", Tech: circuit.DefaultTech, Rows: 1, Cols: 10, Lib: circuit.SampleLib()}
	c.Cells = []circuit.Cell{{Name: "i", Type: circuit.SampleINV, Row: 0, Col: 4}}
	c.Nets = []circuit.Net{
		{Name: "n", Pitch: 1, DiffMate: circuit.NoNet, Pins: []circuit.PinRef{{Cell: 0, Pin: 0}}},
		{Name: "o", Pitch: 1, DiffMate: circuit.NoNet, Pins: []circuit.PinRef{{Cell: 0, Pin: 1}}},
	}
	c.Ext = []circuit.ExtPin{
		{Name: "I", Net: 0, Side: circuit.Bottom, Cols: []int{4}, Dir: circuit.In, Tf: 0.2, Td: 0.2},
		{Name: "O", Net: 1, Side: circuit.Top, Cols: []int{5}, Dir: circuit.Out, Fin: 20},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	res := route(t, c, engine.Config{UseConstraints: true})
	if res.WirelenUm[0] <= 0 {
		t.Fatal("coincident-column net has zero wire (branch stubs must count)")
	}
}
