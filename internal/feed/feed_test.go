package feed

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/rgraph"
)

// requiredRows lists the rows a net must cross.
func requiredRows(ckt *circuit.Circuit, net int) []int {
	minCh, maxCh, _ := ChannelSpan(ckt, net)
	var rows []int
	for r := minCh; r < maxCh; r++ {
		rows = append(rows, r)
	}
	return rows
}

func checkAssignment(t *testing.T, res *Result) {
	t.Helper()
	ckt := res.Ckt
	if err := ckt.Validate(); err != nil {
		t.Fatalf("assigned circuit invalid: %v", err)
	}
	// Every net covers exactly its required rows.
	taken := map[[2]int]int{}
	for n := range ckt.Nets {
		want := requiredRows(ckt, n)
		got := map[int]bool{}
		for _, f := range res.Feeds[n] {
			got[f.Row] = true
			w := ckt.Nets[n].Pitch
			for j := 0; j < w; j++ {
				key := [2]int{f.Row, f.Col + j}
				if prev, dup := taken[key]; dup {
					t.Fatalf("slot (%d,%d) booked by both %s and %s",
						f.Row, f.Col+j, ckt.Nets[prev].Name, ckt.Nets[n].Name)
				}
				taken[key] = n
			}
		}
		if len(got) != len(want) {
			t.Fatalf("net %s: feeds cover %d rows, want %d", ckt.Nets[n].Name, len(got), len(want))
		}
		for _, r := range want {
			if !got[r] {
				t.Fatalf("net %s: missing feedthrough in row %d", ckt.Nets[n].Name, r)
			}
		}
		// Every assigned column must be a real feed slot.
		for _, f := range res.Feeds[n] {
			found := false
			for _, s := range res.Geo.FeedSlots(f.Row) {
				if s.Col == f.Col {
					found = true
				}
			}
			if !found {
				t.Fatalf("net %s: feed (%d,%d) is not a slot", ckt.Nets[n].Name, f.Row, f.Col)
			}
		}
	}
	// The routing graphs must build from the assignment (integration).
	for n := range ckt.Nets {
		g, err := rgraph.Build(ckt, res.Geo, n, res.Feeds[n])
		if err != nil {
			t.Fatalf("rgraph for %s: %v", ckt.Nets[n].Name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("rgraph for %s: %v", ckt.Nets[n].Name, err)
		}
	}
}

func TestAssignSampleSmallNeedsInsertion(t *testing.T) {
	// SampleSmall row 1 has a single feed slot but two nets (n4 and nq)
	// must cross row 1, so §4.3 insertion must kick in.
	ckt := circuit.SampleSmall()
	res, err := Assign(ckt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AddedPitches < 1 {
		t.Fatalf("AddedPitches = %d, want >= 1 (row 1 is short one slot)", res.AddedPitches)
	}
	if res.Ckt.Cols != ckt.Cols+res.AddedPitches {
		t.Fatalf("chip width %d, want %d", res.Ckt.Cols, ckt.Cols+res.AddedPitches)
	}
	checkAssignment(t, res)
	// The original circuit must be untouched.
	if err := ckt.Validate(); err != nil || len(ckt.Cells) != 8 {
		t.Fatalf("input circuit mutated: %v cells=%d", err, len(ckt.Cells))
	}
}

func TestAssignNoShortageNoInsertion(t *testing.T) {
	// In SampleDiff only net nb (top pad PB to bottom pin b0.A) crosses
	// rows, and each row has a free slot, so no widening is needed.
	ckt := circuit.SampleDiff()
	res, err := Assign(ckt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AddedPitches != 0 {
		t.Fatalf("AddedPitches = %d, want 0", res.AddedPitches)
	}
	for n := range ckt.Nets {
		want := len(requiredRows(ckt, n))
		if len(res.Feeds[n]) != want {
			t.Fatalf("net %s: %d feeds, want %d", ckt.Nets[n].Name, len(res.Feeds[n]), want)
		}
		if ckt.Nets[n].Name == "nb" && want != 2 {
			t.Fatalf("fixture drift: nb should cross rows 0 and 1, got %d", want)
		}
	}
	checkAssignment(t, res)
}

func TestAssignDiffPairAdjacent(t *testing.T) {
	// The pair crosses row 0, which has only one free slot, forcing a
	// 2-wide flagged group insertion.
	ckt := circuit.SampleDiffCross()
	if err := ckt.Validate(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	res, err := Assign(ckt, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, res)
	fq, fqb := res.Feeds[0], res.Feeds[1]
	if len(fq) != 1 || len(fqb) != 1 {
		t.Fatalf("pair feeds = %v / %v, want one row each", fq, fqb)
	}
	if fqb[0].Col != fq[0].Col+1 {
		t.Fatalf("pair slots not adjacent: q at %d, qb at %d", fq[0].Col, fqb[0].Col)
	}
	if res.AddedPitches < 2 {
		t.Fatalf("AddedPitches = %d, want >= 2 (2-wide group inserted)", res.AddedPitches)
	}
}

func TestAssignAlignsMultiRowNets(t *testing.T) {
	// Give row 1 plenty of slots so alignment is achievable, then check
	// that a net crossing rows 0 and 1 uses nearby columns.
	ckt := circuit.SampleSmall()
	res, err := Assign(ckt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Net n4 (i1.Z ch2 -> d0.D ch0) crosses rows 1 and 0.
	feeds := res.Feeds[4]
	if len(feeds) != 2 {
		t.Fatalf("n4 feeds = %v, want 2 rows", feeds)
	}
	cols := map[int]int{}
	for _, f := range feeds {
		cols[f.Row] = f.Col
	}
	d := cols[0] - cols[1]
	if d < 0 {
		d = -d
	}
	// Alignment is best effort; with the widened row the columns must be
	// within a few pitches of each other.
	if d > 8 {
		t.Fatalf("n4 feed columns %v spread too far (alignment ignored?)", cols)
	}
}

// contestCircuit has two nets that both want the feed slot at column 2 of
// its single row; the only alternative sits far away at column 18.
func contestCircuit() *circuit.Circuit {
	c := &circuit.Circuit{Name: "contest", Tech: circuit.DefaultTech, Rows: 1, Cols: 20}
	c.Lib = []circuit.CellType{
		{Name: "TIN", Width: 2, Pins: []circuit.PinDef{
			{Name: "A", Dir: circuit.In, Side: circuit.Top, Offsets: []int{0}, Fin: 10},
		}},
		{Name: "FEED", Width: 1, Feed: true},
	}
	c.Cells = []circuit.Cell{
		{Name: "t1", Type: 0, Row: 0, Col: 0},
		{Name: "t2", Type: 0, Row: 0, Col: 4},
		{Name: "f1", Type: 1, Row: 0, Col: 2},
		{Name: "f2", Type: 1, Row: 0, Col: 18},
	}
	c.Nets = []circuit.Net{
		{Name: "nA", Pitch: 1, DiffMate: circuit.NoNet, Pins: []circuit.PinRef{{Cell: 0, Pin: 0}}},
		{Name: "nB", Pitch: 1, DiffMate: circuit.NoNet, Pins: []circuit.PinRef{{Cell: 1, Pin: 0}}},
	}
	c.Ext = []circuit.ExtPin{
		{Name: "EA", Net: 0, Side: circuit.Bottom, Cols: []int{0}, Dir: circuit.In, Tf: 0.2, Td: 0.2},
		{Name: "EB", Net: 1, Side: circuit.Bottom, Cols: []int{4}, Dir: circuit.In, Tf: 0.2, Td: 0.2},
	}
	return c
}

func TestAssignRespectsOrder(t *testing.T) {
	ckt := contestCircuit()
	if err := ckt.Validate(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	resA, err := Assign(ckt, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Assign(ckt, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if resA.AddedPitches != 0 || resB.AddedPitches != 0 {
		t.Fatal("contest fixture should not need insertion")
	}
	if got := resA.Feeds[0][0].Col; got != 2 {
		t.Fatalf("order [nA,nB]: nA at col %d, want the near slot 2", got)
	}
	if got := resB.Feeds[1][0].Col; got != 2 {
		t.Fatalf("order [nB,nA]: nB at col %d, want the near slot 2", got)
	}
	if got := resB.Feeds[0][0].Col; got != 18 {
		t.Fatalf("order [nB,nA]: nA at col %d, want the far slot 18", got)
	}
}

func TestAssignQuickRandomOrders(t *testing.T) {
	base := circuit.SampleSmall()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(len(base.Nets))
		res, err := Assign(base, order)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Re-run the structural checks cheaply: slots unique, rows covered.
		taken := map[[2]int]bool{}
		for n := range res.Ckt.Nets {
			want := requiredRows(res.Ckt, n)
			if len(res.Feeds[n]) != len(want) {
				return false
			}
			for _, fp := range res.Feeds[n] {
				if taken[[2]int{fp.Row, fp.Col}] {
					return false
				}
				taken[[2]int{fp.Row, fp.Col}] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteOrder(t *testing.T) {
	ckt := circuit.SampleSmall()
	got := completeOrder(ckt, []int{3, 3, 99, -1, 0})
	if got[0] != 3 || got[1] != 0 {
		t.Fatalf("completeOrder prefix = %v", got[:2])
	}
	if len(got) != len(ckt.Nets) {
		t.Fatalf("completeOrder length %d, want %d", len(got), len(ckt.Nets))
	}
	seen := map[int]bool{}
	for _, n := range got {
		if seen[n] {
			t.Fatalf("duplicate net %d in order", n)
		}
		seen[n] = true
	}
}

// TestAssignIdempotentAfterWidening: once §4.3 insertion has widened the
// chip, re-assigning on the widened circuit needs no further insertion.
func TestAssignIdempotentAfterWidening(t *testing.T) {
	ckt := circuit.SampleSmall()
	first, err := Assign(ckt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.AddedPitches == 0 {
		t.Fatal("fixture should require insertion")
	}
	second, err := Assign(first.Ckt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.AddedPitches != 0 {
		t.Fatalf("re-assignment on the widened chip inserted %d more columns", second.AddedPitches)
	}
}
