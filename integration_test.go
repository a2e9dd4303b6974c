// Integration tests: the full pipeline on the paper's data sets and on
// randomized circuits, with the structural verifier as the oracle.
package repro_test

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/verify"
)

// TestDatasetsEndToEnd routes every paper data set in both modes, audits
// the result, and checks the reproduction's shape claims.
func TestDatasetsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset sweep in -short mode")
	}
	rows, err := experiment.RunAll(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("expected 5 data sets, got %d", len(rows))
	}
	for _, row := range rows {
		con, unc := row.DiffPct()
		if con < 0 || unc < 0 {
			t.Errorf("%s: routed delay below lower bound (con %+.1f%%, unc %+.1f%%)", row.Name, con, unc)
		}
		if row.Con.DelayPs > row.Unc.DelayPs+1e-6 {
			t.Errorf("%s: constrained %0.1f ps slower than unconstrained %0.1f ps",
				row.Name, row.Con.DelayPs, row.Unc.DelayPs)
		}
		// Area "almost unchanged": within 10% between modes.
		rel := (row.Con.AreaMm2 - row.Unc.AreaMm2) / row.Unc.AreaMm2
		if rel > 0.10 || rel < -0.10 {
			t.Errorf("%s: area changed %+.1f%% between modes", row.Name, rel*100)
		}
	}
	h := experiment.Summarize(rows)
	if h.AvgReductionOfLB < 5 {
		t.Errorf("average delay reduction %.1f%% of LB — expected a double-digit-ish paper shape", h.AvgReductionOfLB)
	}
	// P2 routes worse than P1 on the same circuit (the feed-spacing
	// argument): compare the C1 pair.
	byName := map[string]*experiment.Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["C1P2"].Unc.DelayPs < byName["C1P1"].Unc.DelayPs {
		t.Error("P2 unconstrained routed better than P1; feed spacing effect lost")
	}
}

// TestDatasetsVerify audits the router's output structurally for each
// data set and mode.
func TestDatasetsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset sweep in -short mode")
	}
	for _, name := range gen.DatasetNames() {
		p, err := gen.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		ckt, err := gen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, use := range []bool{true, false} {
			res, err := core.Route(ckt, engine.Config{UseConstraints: use})
			if err != nil {
				t.Fatalf("%s constraints=%v: %v", name, use, err)
			}
			if v := verify.Routing(res); !v.OK() {
				t.Errorf("%s constraints=%v: %d problems, first: %v",
					name, use, len(v.Problems), v.Problems[0])
			}
			if _, err := chanroute.Route(res.Ckt, res.Graphs); err != nil {
				t.Errorf("%s constraints=%v channel routing: %v", name, use, err)
			}
		}
	}
}

// TestRandomCircuitsPipeline generates small random circuits and pushes
// them through the whole pipeline; the verifier and channel router must
// accept every one.
func TestRandomCircuitsPipeline(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{
			Name: "rand", Seed: seed,
			Cells: 30 + rng.Intn(60), Rows: 2 + rng.Intn(4),
			SeqFrac: 0.1 + rng.Float64()*0.3, AvgFanout: 1.5,
			Locality: 8 + rng.Intn(20), PIs: 2 + rng.Intn(6), POs: 2 + rng.Intn(6),
			DiffPairs: rng.Intn(3), WideClock: rng.Intn(2) == 0,
			FeedFrac: 0.05 + rng.Float64()*0.3, Constraints: 1 + rng.Intn(5),
			LimitFactor: 1.05 + rng.Float64()*0.5,
		}
		if rng.Intn(2) == 0 {
			p.Style = gen.P2
		}
		ckt, err := gen.Generate(p)
		if err != nil {
			t.Logf("seed %d: generate: %v", seed, err)
			return false
		}
		res, err := core.Route(ckt, engine.Config{UseConstraints: true})
		if err != nil {
			t.Logf("seed %d: route: %v", seed, err)
			return false
		}
		if v := verify.Routing(res); !v.OK() {
			t.Logf("seed %d: verify: %v", seed, v.Problems[0])
			return false
		}
		cr, err := chanroute.Route(res.Ckt, res.Graphs)
		if err != nil {
			t.Logf("seed %d: chanroute: %v", seed, err)
			return false
		}
		delay, _, err := experiment.FinalDelay(res.Ckt, cr.NetLenUm)
		if err != nil || delay <= 0 {
			t.Logf("seed %d: final delay %v err %v", seed, delay, err)
			return false
		}
		return true
	}
	n := 25
	if testing.Short() {
		n = 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratedCircuitRoundTrip: generated circuits survive the text
// format (Format -> Parse -> Format is a fixed point).
func TestGeneratedCircuitRoundTrip(t *testing.T) {
	p, err := gen.Dataset("C1P1")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var a bytes.Buffer
	if err := circuit.Format(&a, ckt); err != nil {
		t.Fatal(err)
	}
	parsed, err := circuit.Parse(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := circuit.Format(&b, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("format/parse/format not a fixed point on a generated circuit")
	}
	// And the parsed circuit routes identically.
	r1, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.Route(parsed, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Delay != r2.Delay || r1.TotalWirelenUm != r2.TotalWirelenUm {
		t.Fatalf("parsed circuit routes differently: (%v,%v) vs (%v,%v)",
			r1.Delay, r1.TotalWirelenUm, r2.Delay, r2.TotalWirelenUm)
	}
}

// TestStressScale routes a circuit well beyond the paper's sizes and
// audits it — the scalability check.
func TestStressScale(t *testing.T) {
	if testing.Short() {
		t.Skip("stress circuit in -short mode")
	}
	ckt, err := gen.Generate(gen.StressParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.Routing(res); !v.OK() {
		t.Fatalf("stress routing failed verification: %v", v.Problems[0])
	}
	if _, err := chanroute.Route(res.Ckt, res.Graphs); err != nil {
		t.Fatal(err)
	}
	t.Logf("stress: %d nets, delay %.1f ps, %d tracks, +%d columns",
		len(res.Graphs), res.Delay, res.Dens.TotalTracks(), res.AddedPitches)
}

// TestDatapathPipeline routes a bit-sliced datapath circuit end to end:
// the §4.2/§4.3 stress pattern (vertical control broadcasts, wide clock,
// scarce feeds) must route, verify and channel-route cleanly.
func TestDatapathPipeline(t *testing.T) {
	ckt, err := gen.Generate(gen.Params{
		Name: "dp", Seed: 404, Cells: 160, Rows: 8,
		FeedFrac: 0.15, WideClock: true, Constraints: 6, LimitFactor: 1.2,
		Datapath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, use := range []bool{true, false} {
		res, err := core.Route(ckt, engine.Config{UseConstraints: use})
		if err != nil {
			t.Fatalf("constraints=%v: %v", use, err)
		}
		if v := verify.Routing(res); !v.OK() {
			t.Fatalf("constraints=%v: %v", use, v.Problems[0])
		}
		if _, err := chanroute.Route(res.Ckt, res.Graphs); err != nil {
			t.Fatalf("constraints=%v: %v", use, err)
		}
	}
}

// TestMultiSinkConstraintsPipeline routes a circuit whose constraints have
// sink sets (the paper's T_P), both modes, with verification.
func TestMultiSinkConstraintsPipeline(t *testing.T) {
	p, err := gen.Dataset("C1P1")
	if err != nil {
		t.Fatal(err)
	}
	p.MultiSink = true
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.Routing(res); !v.OK() {
		t.Fatalf("%v", v.Problems[0])
	}
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.Channels(cr); !v.OK() {
		t.Fatalf("%v", v.Problems[0])
	}
}

// TestElmoreDatasetVerifies routes C1P1 under the RC extension and audits
// the result — the §2.1 claim exercised at data-set scale.
func TestElmoreDatasetVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset run in -short mode")
	}
	p, err := gen.Dataset("C1P1")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Route(ckt, engine.Config{UseConstraints: true, DelayModel: engine.Elmore, RPerUm: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.Routing(res); !v.OK() {
		t.Fatalf("%v", v.Problems[0])
	}
	if res.Delay <= 0 {
		t.Fatal("no delay under Elmore")
	}
}

// TestShippedCircuitFile parses the hand-written example circuit and runs
// it through the whole flow — the file-based interop path of bgr-route.
func TestShippedCircuitFile(t *testing.T) {
	f, err := os.Open("examples/data/invchain.ckt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ckt, err := circuit.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if ckt.Name != "invchain" || len(ckt.Nets) != 5 {
		t.Fatalf("unexpected content: %s, %d nets", ckt.Name, len(ckt.Nets))
	}
	res, err := core.Route(ckt, engine.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := verify.Routing(res); !v.OK() {
		t.Fatalf("%v", v.Problems[0])
	}
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	delay, viol, err := experiment.FinalDelay(res.Ckt, cr.NetLenUm)
	if err != nil {
		t.Fatal(err)
	}
	if viol != 0 {
		t.Errorf("invchain violates its constraint: %.1f ps vs 700 ps limit", delay)
	}
}

// TestRobustnessShape pins the seed-robustness claims recorded in
// EXPERIMENTS.md (smaller sample to keep test time sane).
func TestRobustnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("robustness sweep in -short mode")
	}
	st, err := experiment.Robustness(12, gen.P2)
	if err != nil {
		t.Fatal(err)
	}
	if st.NeverWorse != st.Seeds {
		t.Errorf("P2: constrained lost on %d/%d seeds", st.Seeds-st.NeverWorse, st.Seeds)
	}
	if st.MeanPct < 8 {
		t.Errorf("P2 mean reduction %.1f%% of LB — expected double digits", st.MeanPct)
	}
	if st.MinPct < 0 {
		t.Errorf("P2 min reduction %.1f%% negative", st.MinPct)
	}
}
