package gen

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dgraph"
	"repro/internal/lowerbound"
)

func TestDatasetPresets(t *testing.T) {
	for _, name := range DatasetNames() {
		p, err := Dataset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != name || p.Cells == 0 || p.Rows == 0 || p.Constraints == 0 {
			t.Fatalf("%s: incomplete preset %+v", name, p)
		}
	}
	if _, err := Dataset("C9P1"); err == nil {
		t.Fatal("unknown circuit accepted")
	}
	if _, err := Dataset("C1P9"); err == nil {
		t.Fatal("unknown placement accepted")
	}
	// P1 and P2 differ only in placement style.
	a, _ := Dataset("C1P1")
	b, _ := Dataset("C1P2")
	if a.Seed != b.Seed || a.Cells != b.Cells {
		t.Fatal("P1/P2 presets must share the netlist parameters")
	}
	if a.Style == b.Style {
		t.Fatal("P1/P2 must differ in placement style")
	}
}

func TestGenerateValidates(t *testing.T) {
	for _, name := range []string{"C1P1", "C1P2"} {
		p, _ := Dataset(name)
		ckt, err := Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ckt.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ckt.Cons) == 0 {
			t.Fatalf("%s: no constraints generated", name)
		}
		if len(ckt.Nets) < p.Cells/2 {
			t.Fatalf("%s: suspiciously few nets: %d", name, len(ckt.Nets))
		}
	}
}

// TestGenerateRefusesNonsense checks that Generate refuses parameters it
// cannot honour instead of substituting a default for them.
func TestGenerateRefusesNonsense(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Params)
	}{
		{"zero limit", func(p *Params) { p.LimitFactor = 0 }},
		{"negative limit", func(p *Params) { p.LimitFactor = -1 }},
		{"NaN limit", func(p *Params) { p.LimitFactor = math.NaN() }},
		{"infinite limit", func(p *Params) { p.LimitFactor = math.Inf(1) }},
		{"negative PIs", func(p *Params) { p.PIs = -1 }},
		{"negative POs", func(p *Params) { p.POs = -1 }},
		{"negative pairs", func(p *Params) { p.DiffPairs = -2 }},
		{"negative constraints", func(p *Params) { p.Constraints = -3 }},
	} {
		p, _ := Dataset("C1P1")
		c.edit(&p)
		if ckt, err := Generate(p); err == nil {
			t.Errorf("%s: generated %s instead of refusing", c.name, ckt.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := Dataset("C1P1")
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) || len(a.Nets) != len(b.Nets) || len(a.Cons) != len(b.Cons) {
		t.Fatal("same seed produced different circuits")
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %d differs", i)
		}
	}
	for p := range a.Cons {
		if a.Cons[p].Limit != b.Cons[p].Limit {
			t.Fatalf("constraint %d limit differs", p)
		}
	}
}

func TestGenerateStructuralFeatures(t *testing.T) {
	p, _ := Dataset("C1P1")
	ckt, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Diff pairs present and mutual.
	pairs := 0
	for n := range ckt.Nets {
		if m := ckt.Nets[n].DiffMate; m != circuit.NoNet {
			if ckt.Nets[m].DiffMate != n {
				t.Fatalf("pair %d not mutual", n)
			}
			pairs++
		}
	}
	if pairs != 2*p.DiffPairs {
		t.Fatalf("diff nets = %d, want %d", pairs, 2*p.DiffPairs)
	}
	// Wide clock present.
	wide := 0
	for n := range ckt.Nets {
		if ckt.Nets[n].Pitch > 1 {
			wide++
			if ckt.Nets[n].Name != "clk" {
				t.Fatalf("unexpected wide net %s", ckt.Nets[n].Name)
			}
		}
	}
	if wide != 1 {
		t.Fatalf("wide nets = %d, want 1 (the clock)", wide)
	}
	// Feed cells exist in every row.
	feeds := make([]int, ckt.Rows)
	for i := range ckt.Cells {
		if ckt.IsFeedCell(i) {
			feeds[ckt.Cells[i].Row]++
		}
	}
	for r, f := range feeds {
		if f == 0 {
			t.Fatalf("row %d has no feed cells", r)
		}
	}
}

func TestGenerateP2SweepsFeedsAside(t *testing.T) {
	p1, _ := Dataset("C1P1")
	p2, _ := Dataset("C1P2")
	a, err := Generate(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p2)
	if err != nil {
		t.Fatal(err)
	}
	// In P2 every feed cell must sit to the right of every logic cell of
	// its row; in P1 they must not.
	rightmost := func(ckt *circuit.Circuit) (feedsRight int, rows int) {
		for r := 0; r < ckt.Rows; r++ {
			maxLogic, minFeed := -1, 1<<30
			for i := range ckt.Cells {
				if ckt.Cells[i].Row != r {
					continue
				}
				if ckt.IsFeedCell(i) {
					if ckt.Cells[i].Col < minFeed {
						minFeed = ckt.Cells[i].Col
					}
				} else if ckt.Cells[i].Col > maxLogic {
					maxLogic = ckt.Cells[i].Col
				}
			}
			rows++
			if minFeed > maxLogic {
				feedsRight++
			}
		}
		return feedsRight, rows
	}
	fr1, rows := rightmost(a)
	fr2, _ := rightmost(b)
	if fr2 != rows {
		t.Fatalf("P2: only %d/%d rows have feeds swept right", fr2, rows)
	}
	if fr1 == rows {
		t.Fatal("P1 looks identical to P2")
	}
}

func TestConstraintLimitsTrackLowerBound(t *testing.T) {
	p, _ := Dataset("C1P1")
	ckt, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	perCons, _, err := lowerbound.Delay(ckt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ckt.Cons {
		want := perCons[i] * p.LimitFactor
		if math.Abs(ckt.Cons[i].Limit-want) > 1e-6*want {
			t.Fatalf("constraint %s limit %v, want %v", ckt.Cons[i].Name, ckt.Cons[i].Limit, want)
		}
		if perCons[i] <= 0 {
			t.Fatalf("constraint %s has non-positive lower bound", ckt.Cons[i].Name)
		}
	}
}

func TestGeneratedDelayGraphHasPaths(t *testing.T) {
	p, _ := Dataset("C1P1")
	ckt, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := dgraph.New(ckt)
	if err != nil {
		t.Fatal(err)
	}
	tm := dg.NewTiming()
	tm.SetLumped(make([]float64, len(ckt.Nets)))
	tm.Analyze()
	for pi := range tm.Cons {
		if tm.Cons[pi].Worst <= 0 {
			t.Errorf("constraint %s has no path", ckt.Cons[pi].Name)
		}
	}
}

func TestMultiSinkConstraints(t *testing.T) {
	p, _ := Dataset("C1P1")
	p.MultiSink = true
	p.Constraints = 20
	ckt, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for i := range ckt.Cons {
		if len(ckt.Cons[i].To) > 1 {
			multi++
		}
		if len(ckt.Cons[i].From) == 0 || len(ckt.Cons[i].To) == 0 {
			t.Fatalf("constraint %s has empty endpoints", ckt.Cons[i].Name)
		}
	}
	if multi == 0 {
		t.Fatal("MultiSink produced no multi-sink constraints")
	}
	// Limits still track the lower bound per constraint.
	perCons, _, err := lowerbound.Delay(ckt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ckt.Cons {
		if perCons[i] <= 0 {
			t.Fatalf("constraint %s (multi=%v) has no path", ckt.Cons[i].Name, len(ckt.Cons[i].To) > 1)
		}
	}
}
