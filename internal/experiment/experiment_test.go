package experiment

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/gen"
)

func TestRunGeneratedSample(t *testing.T) {
	// The hand-built sample is tiny, so a full two-mode evaluation is
	// cheap and exercises the whole pipeline.
	row, err := RunGenerated("sample", circuit.SampleSmall(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if row.LowerBoundPs <= 0 {
		t.Fatal("no lower bound")
	}
	if row.Con.DelayPs < row.LowerBoundPs {
		t.Fatalf("constrained delay %v below lower bound %v", row.Con.DelayPs, row.LowerBoundPs)
	}
	if row.Unc.DelayPs < row.LowerBoundPs {
		t.Fatalf("unconstrained delay %v below lower bound %v", row.Unc.DelayPs, row.LowerBoundPs)
	}
	if row.Con.DelayPs > row.Unc.DelayPs+1e-6 {
		t.Fatalf("constrained delay %v worse than unconstrained %v", row.Con.DelayPs, row.Unc.DelayPs)
	}
	if row.Con.AreaMm2 <= 0 || row.Con.LengthMm <= 0 {
		t.Fatal("missing area/length")
	}
	if row.Cells != 5 {
		t.Fatalf("cells = %d, want 5 (the 3 feed cells are excluded)", row.Cells)
	}
}

func TestRunDatasetC1P1(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset run in -short mode")
	}
	row, err := RunDataset("C1P1", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	con, unc := row.DiffPct()
	if con < 0 || unc < 0 {
		t.Fatalf("delays below the lower bound: con=%v unc=%v", con, unc)
	}
	// The reproduction's expected shape: the constrained run is at least
	// as close to the lower bound as the unconstrained one.
	if con > unc+1e-9 {
		t.Fatalf("constrained diff %v%% worse than unconstrained %v%%", con, unc)
	}
	if row.ImprovementPct() < 0 {
		t.Fatalf("negative improvement %v", row.ImprovementPct())
	}
}

func TestSummarize(t *testing.T) {
	rows := []*Row{
		{Name: "A", LowerBoundPs: 100, Con: Run{DelayPs: 108, AreaMm2: 1.0}, Unc: Run{DelayPs: 130, AreaMm2: 1.0}},
		{Name: "B", LowerBoundPs: 200, Con: Run{DelayPs: 230, AreaMm2: 2.0}, Unc: Run{DelayPs: 270, AreaMm2: 2.1}},
	}
	h := Summarize(rows)
	// Row A: reduction (130-108)/100 = 22%; row B: (270-230)/200 = 20%.
	if h.AvgReductionOfLB < 20.9 || h.AvgReductionOfLB > 21.1 {
		t.Fatalf("AvgReductionOfLB = %v, want 21", h.AvgReductionOfLB)
	}
	// A: con diff 8% (<10 ok). B: con diff 15%, unc 35%: 15 < 17.5 ok.
	if h.HalfOrTenSatisfied != 2 {
		t.Fatalf("HalfOrTenSatisfied = %d, want 2", h.HalfOrTenSatisfied)
	}
	if h.MinImprovementPct > h.MaxImprovementPct {
		t.Fatal("min/max inverted")
	}
}

func TestScalingText(t *testing.T) {
	points := []ScalePoint{{Name: "X", Cells: 10, Nets: 8, GenSec: 0.01, RouteSec: 0.02, DelayPs: 123.4}}
	s := ScalingText(points)
	for _, want := range []string{"Runtime scaling", "X", "123.4"} {
		if !strings.Contains(s, want) {
			t.Errorf("scaling text missing %q:\n%s", want, s)
		}
	}
}

func TestRunCircuitEnginesSample(t *testing.T) {
	runs := map[string]Run{}
	for _, eng := range engine.Names() {
		run, err := RunCircuit(circuit.SampleSmall(), eng, engine.Config{UseConstraints: true})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if run.DelayPs <= 0 || run.EstimatedPs <= 0 || run.AreaMm2 <= 0 || run.LengthMm <= 0 ||
			run.CPUSec <= 0 || run.Tracks <= 0 {
			t.Fatalf("%s: incomplete run: %+v", eng, run)
		}
		runs[eng] = run
	}
	// The per-net baseline and the concurrent router measure the same
	// circuit; on this tiny fixture they must land in the same ballpark.
	con, seq := runs[engine.DefaultName], runs["sequential"]
	if seq.DelayPs < con.DelayPs*0.5 || seq.DelayPs > con.DelayPs*2 {
		t.Fatalf("sequential delay %v implausible vs concurrent %v", seq.DelayPs, con.DelayPs)
	}
	// sequential and steiner are two names for one router.
	ste := runs["steiner"]
	seq.CPUSec, ste.CPUSec = 0, 0
	if seq != ste {
		t.Fatalf("sequential %+v != steiner %+v", seq, ste)
	}
}

func TestRunAllAndScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	rows, err := RunAll(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	points, err := Scaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("scaling points = %d, want 4", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Nets < points[i-1].Nets {
			t.Fatalf("scaling points not ordered by size")
		}
	}
}

func TestRobustnessTextSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("generates circuits")
	}
	st, err := Robustness(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seeds != 3 || len(st.Reductions) != 3 {
		t.Fatalf("stats incomplete: %+v", st)
	}
	if st.MinPct > st.MedianPct || st.MedianPct > st.MaxPct {
		t.Fatalf("order statistics inconsistent: %+v", st)
	}
	s := RobustnessText(st)
	if !strings.Contains(s, "3 fresh circuits") || !strings.Contains(s, "mean") {
		t.Fatalf("text malformed:\n%s", s)
	}
}

// TestEvaluateMatchesFinalDelay requires Evaluate, which analyzes over
// the route's own delay graph, to report bit for bit the delay and
// violation count of FinalDelay, which builds a fresh graph from the
// routed circuit: bench's service workload fails an operation when a
// job's summary delay differs from FinalDelay's by any amount. It covers
// every engine in both modes on the five data sets, and on C1P1- and
// C1P2-shaped circuits at random seeds, parsed from their text as the
// service receives them.
func TestEvaluateMatchesFinalDelay(t *testing.T) {
	var ckts []*circuit.Circuit
	for _, name := range gen.DatasetNames() {
		ckts = append(ckts, generate(t, name, 0))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		ckt := generate(t, []string{"C1P1", "C1P2"}[i%2], rng.Int63n(1<<40))
		var b strings.Builder
		if err := circuit.Format(&b, ckt); err != nil {
			t.Fatal(err)
		}
		ckt, err := circuit.Parse(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		ckts = append(ckts, ckt)
	}
	for _, ckt := range ckts {
		for _, eng := range engine.Names() {
			for _, constrained := range []bool{true, false} {
				res, err := engine.Route(context.Background(), eng, ckt, engine.Config{UseConstraints: constrained})
				if err != nil {
					t.Fatalf("%s %s: %v", ckt.Name, eng, err)
				}
				ev, err := Evaluate(res)
				if err != nil {
					t.Fatalf("%s %s: %v", ckt.Name, eng, err)
				}
				worst, viol, err := FinalDelay(res.Ckt, ev.Channels.NetLenUm)
				if err != nil {
					t.Fatalf("%s %s: %v", ckt.Name, eng, err)
				}
				if ev.DelayPs != worst || ev.Violations != viol {
					t.Fatalf("%s %s constrained=%v: Evaluate %v ps, %d violations; FinalDelay %v ps, %d violations",
						ckt.Name, eng, constrained, ev.DelayPs, ev.Violations, worst, viol)
				}
			}
		}
	}
}

// generate draws the named data set, at its own seed when seed is 0.
func generate(t *testing.T, name string, seed int64) *circuit.Circuit {
	t.Helper()
	p, err := gen.Dataset(name)
	if err != nil {
		t.Fatal(err)
	}
	if seed != 0 {
		p.Seed = seed
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}
