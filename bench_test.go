// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), plus the DESIGN.md ablations (A1, A3-A6) and
// microbenches of the router's hot kernels. Quality numbers (delay, area)
// are attached to the benchmark output via ReportMetric so `go test -bench`
// prints the tables' content, not just speed.
package repro_test

import (
	"testing"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/dgraph"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/feed"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/lowerbound"
	"repro/internal/report"
	"repro/internal/rgraph"
)

func mustDataset(b *testing.B, name string) *circuit.Circuit {
	b.Helper()
	p, err := gen.Dataset(name)
	if err != nil {
		b.Fatal(err)
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	return ckt
}

// BenchmarkTable1 regenerates the test-circuit data (Table 1): synthesis
// of all five data sets.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range gen.DatasetNames() {
			p, err := gen.Dataset(name)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := gen.Generate(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2 regenerates the routing results (Table 2): each data
// set routed with and without constraints, through channel routing.
func BenchmarkTable2(b *testing.B) {
	for _, name := range gen.DatasetNames() {
		ckt := mustDataset(b, name)
		for _, mode := range []struct {
			tag string
			use bool
		}{{"constrained", true}, {"unconstrained", false}} {
			b.Run(name+"/"+mode.tag, func(b *testing.B) {
				var last experiment.Run
				for i := 0; i < b.N; i++ {
					run, err := experiment.RunCircuit(ckt, engine.DefaultName, core.Config{UseConstraints: mode.use})
					if err != nil {
						b.Fatal(err)
					}
					last = run
				}
				b.ReportMetric(last.DelayPs, "delay_ps")
				b.ReportMetric(last.AreaMm2*1000, "area_um2e3")
				b.ReportMetric(last.LengthMm, "len_mm")
			})
		}
	}
}

// BenchmarkTable3 regenerates the lower-bound comparison (Table 3).
func BenchmarkTable3(b *testing.B) {
	for _, name := range gen.DatasetNames() {
		ckt := mustDataset(b, name)
		b.Run(name, func(b *testing.B) {
			var lb float64
			for i := 0; i < b.N; i++ {
				var err error
				if _, lb, err = lowerbound.Delay(ckt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(lb, "lower_ps")
		})
	}
}

// BenchmarkHeadline runs the entire evaluation and reports the paper's
// headline statistic (average delay reduction as % of the lower bound;
// paper: 17.6%).
func BenchmarkHeadline(b *testing.B) {
	var h experiment.Headline
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunAll(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		h = experiment.Summarize(rows)
	}
	b.ReportMetric(h.AvgReductionOfLB, "avg_reduction_pct")
	b.ReportMetric(h.AvgConDiffFromLB, "con_vs_lb_pct")
	b.ReportMetric(h.AvgUncDiffFromLB, "unc_vs_lb_pct")
}

// BenchmarkFigure1 renders the delay-model figure (Fig. 1).
func BenchmarkFigure1(b *testing.B) {
	ckt := circuit.SampleSmall()
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig1DelayGraph(ckt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 exercises the algorithm-outline trace (Fig. 2): a full
// route with phase tracing enabled.
func BenchmarkFigure2(b *testing.B) {
	ckt := circuit.SampleSmall()
	for i := 0; i < b.N; i++ {
		res, err := core.Route(ckt, core.Config{UseConstraints: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Phases) < 4 {
			b.Fatal("missing phases")
		}
	}
}

// BenchmarkFigure3 renders a routing-graph dump (Fig. 3).
func BenchmarkFigure3(b *testing.B) {
	res, err := core.Route(circuit.SampleSmall(), core.Config{UseConstraints: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Fig3RoutingGraph(res.Ckt, res.Graphs[1])
	}
}

// BenchmarkFigure4 renders the density chart (Fig. 4).
func BenchmarkFigure4(b *testing.B) {
	res, err := core.Route(circuit.SampleSmall(), core.Config{UseConstraints: true})
	if err != nil {
		b.Fatal(err)
	}
	ch, _ := res.Dens.MaxCM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Fig4DensityChart(res.Dens, ch)
	}
}

// ablationRun routes C1P1 constrained with the given config and reports
// delay/area so configurations can be compared.
func ablationRun(b *testing.B, cfg core.Config) {
	ckt := mustDataset(b, "C1P1")
	cfg.UseConstraints = true
	b.ResetTimer()
	var last experiment.Run
	for i := 0; i < b.N; i++ {
		run, err := experiment.RunCircuit(ckt, engine.DefaultName, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = run
	}
	b.ReportMetric(last.DelayPs, "delay_ps")
	b.ReportMetric(last.AreaMm2*1000, "area_um2e3")
}

// BenchmarkAblationCriteriaOrder (A1): density criteria promoted over
// Gl/LD in every phase, not only the area phase.
func BenchmarkAblationCriteriaOrder(b *testing.B) {
	b.Run("paper", func(b *testing.B) { ablationRun(b, core.Config{}) })
	b.Run("areaFirst", func(b *testing.B) { ablationRun(b, core.Config{AreaFirst: true}) })
}

// BenchmarkAblationNetOrder (A3): slack-ordered feedthrough assignment vs
// the alternative orderings.
func BenchmarkAblationNetOrder(b *testing.B) {
	b.Run("slack", func(b *testing.B) { ablationRun(b, core.Config{Order: core.OrderSlack}) })
	b.Run("index", func(b *testing.B) { ablationRun(b, core.Config{Order: core.OrderIndex}) })
	b.Run("hpwl", func(b *testing.B) { ablationRun(b, core.Config{Order: core.OrderHPWL}) })
	b.Run("fanout", func(b *testing.B) { ablationRun(b, core.Config{Order: core.OrderFanout}) })
}

// BenchmarkAblationRCModel (A4): lumped capacitance vs the Elmore RC
// extension.
func BenchmarkAblationRCModel(b *testing.B) {
	b.Run("lumped", func(b *testing.B) { ablationRun(b, core.Config{}) })
	b.Run("elmore", func(b *testing.B) {
		ablationRun(b, core.Config{DelayModel: core.Elmore, RPerUm: 0.0005})
	})
}

// BenchmarkAblationPhases (A5): initial routing only vs the full three
// improvement phases.
func BenchmarkAblationPhases(b *testing.B) {
	b.Run("all", func(b *testing.B) { ablationRun(b, core.Config{}) })
	b.Run("initialOnly", func(b *testing.B) { ablationRun(b, core.Config{SkipImprovement: true}) })
}

// BenchmarkAblationFeedReroute (A6): feedthrough re-assignment during
// rip-up and reroute disabled.
func BenchmarkAblationFeedReroute(b *testing.B) {
	b.Run("withRealloc", func(b *testing.B) { ablationRun(b, core.Config{}) })
	b.Run("without", func(b *testing.B) { ablationRun(b, core.Config{NoFeedReroute: true}) })
}

// --- Microbenches of the router's hot kernels ---

func benchGraph(b *testing.B) (*circuit.Circuit, *rgraph.Graph) {
	b.Helper()
	ckt := circuit.SampleSmall()
	fr, err := feed.Assign(ckt, nil)
	if err != nil {
		b.Fatal(err)
	}
	g, err := rgraph.Build(fr.Ckt, fr.Geo, 1, fr.Feeds[1])
	if err != nil {
		b.Fatal(err)
	}
	return fr.Ckt, g
}

func BenchmarkDijkstraTentative(b *testing.B) {
	_, g := benchGraph(b)
	tr, err := g.Tentative() // warm: the loop reuses this tree's storage
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr, err = g.TentativeInto(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBridgeRecompute(b *testing.B) {
	_, g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RecomputeBridges()
	}
}

func BenchmarkSTA(b *testing.B) {
	ckt := mustDataset(b, "C1P1")
	dg, err := dgraph.New(ckt)
	if err != nil {
		b.Fatal(err)
	}
	tm := dg.NewTiming()
	wl := make([]float64, len(ckt.Nets))
	for i := range wl {
		wl[i] = 300
	}
	tm.SetLumped(wl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Analyze()
	}
}

// BenchmarkTimingFlush measures the incremental timing engine on C3P1: a
// sparse net perturbation followed by a dirty-set Flush, against the old
// per-constraint full-topo walk over the same dirty set (ReferenceWorst is
// that walk, kept as the equivalence oracle).
func BenchmarkTimingFlush(b *testing.B) {
	ckt := mustDataset(b, "C3P1")
	dg, err := dgraph.New(ckt)
	if err != nil {
		b.Fatal(err)
	}
	wl := make([]float64, len(ckt.Nets))
	for i := range wl {
		wl[i] = 300
	}
	// The perturbed nets: a deterministic sparse sample, the shape of one
	// rip-up-and-reroute step (a net and its differential mate).
	nets := make([]int, 0, 8)
	for i := 0; i < 8; i++ {
		nets = append(nets, (i*131)%len(ckt.Nets))
	}
	b.Run("flush", func(b *testing.B) {
		tm := dg.NewTiming()
		tm.SetLumped(wl)
		tm.Flush()
		// Warm one perturb+flush so lazily-sized scratch exists before
		// measuring.
		for _, n := range nets {
			tm.SetNetLumped(n, 300)
		}
		tm.Flush()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, n := range nets {
				tm.SetNetLumped(n, 300+float64(i%7))
			}
			tm.Flush()
		}
	})
	b.Run("fullwalk", func(b *testing.B) {
		tm := dg.NewTiming()
		tm.SetLumped(wl)
		tm.Flush()
		seen := make([]bool, len(tm.Cons))
		touched := make([]int, 0, len(tm.Cons))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Replicates the pre-subgraph refreshTrees: dedupe the
			// affected constraints, then run the graph-sized topo walk
			// (what analyzeOne used to be) for each.
			touched = touched[:0]
			for _, n := range nets {
				tm.SetNetLumped(n, 300+float64(i%7))
				for _, p := range dg.ConsOfNet(n) {
					if !seen[p] {
						seen[p] = true
						touched = append(touched, p)
					}
				}
			}
			var sink float64
			for _, p := range touched {
				sink += tm.ReferenceWorst(p) // the old graph-sized topo walk
				seen[p] = false
			}
			_ = sink
		}
	})
}

func BenchmarkDensityUpdate(b *testing.B) {
	s := density.New(8, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := i % 8
		s.Add(ch, 10, 200, 1)
		s.AddBridge(ch, 50, 120, 1)
		_ = s.Channel(ch)
		s.RemoveBridge(ch, 50, 120, 1)
		s.Remove(ch, 10, 200, 1)
	}
}

func BenchmarkFeedAssign(b *testing.B) {
	ckt := mustDataset(b, "C1P1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := feed.Assign(ckt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelRoute(b *testing.B) {
	res, err := core.Route(mustDataset(b, "C1P1"), core.Config{UseConstraints: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chanroute.Route(res.Ckt, res.Graphs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeometryBuild(b *testing.B) {
	ckt := mustDataset(b, "C2P1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grid.New(ckt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineSequential compares the paper's concurrent edge
// deletion against the net-at-a-time sequential baseline (the router
// class the paper argues against), one sub-benchmark per engine.
func BenchmarkBaselineSequential(b *testing.B) {
	ckt := mustDataset(b, "C1P1")
	for _, eng := range engine.Names() {
		b.Run(eng, func(b *testing.B) {
			var last experiment.Run
			for i := 0; i < b.N; i++ {
				run, err := experiment.RunCircuit(ckt, eng, engine.Config{UseConstraints: true})
				if err != nil {
					b.Fatal(err)
				}
				last = run
			}
			b.ReportMetric(last.DelayPs, "delay_ps")
			b.ReportMetric(float64(last.Tracks), "tracks")
		})
	}
}

// BenchmarkStressScale routes the ~2000-cell stress circuit end to end.
func BenchmarkStressScale(b *testing.B) {
	ckt, err := gen.Generate(gen.StressParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunCircuit(ckt, engine.DefaultName, core.Config{UseConstraints: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIteratedECO measures a second improvement round via
// core.ReOptimize on top of a finished routing (diminishing returns by
// design: Route's own phases already converge).
func BenchmarkIteratedECO(b *testing.B) {
	prev, err := core.Route(mustDataset(b, "C1P2"), core.Config{UseConstraints: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var delay float64
	for i := 0; i < b.N; i++ {
		eco, err := core.ReOptimize(prev, core.Config{UseConstraints: true})
		if err != nil {
			b.Fatal(err)
		}
		delay = eco.Delay
	}
	b.ReportMetric(prev.Delay, "before_ps")
	b.ReportMetric(delay, "after_ps")
}
