// Command bgr-route runs the timing- and area-driven global router on a
// circuit file (or a generated preset), performs channel routing, and
// reports the resulting delay, area and wire length. It can also dump
// ASCII versions of the paper's figures.
//
// Usage:
//
//	bgr-route -i design.ckt
//	bgr-route -dataset C1P1 -unconstrained
//	bgr-route -dataset C1P1 -fig 4 -channel 2
//	bgr-route -i design.ckt -fig 3 -net n0042
//	bgr-route -i design.ckt -elmore -r 0.0005 -phases
//	bgr-route -i design.ckt -engine sequential
//
// -engine selects the routing engine: "concurrent" (the paper's router,
// default) or "sequential" (the net-at-a-time baseline). "steiner" is a
// second name for the sequential engine's per-net router.
//
// Routing is always local; to route on a running bgr-serve, POST the
// circuit to its HTTP API (docs/SERVICE.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/lowerbound"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/rgraph"
	"repro/internal/routedb"
	"repro/internal/verify"

	// Register every routing engine for -engine (and so the summary can
	// list them on a bad name).
	_ "repro/internal/core"
	_ "repro/internal/seqroute"
	_ "repro/internal/steiner"
)

func main() {
	var (
		in      = flag.String("i", "", "input circuit file (text format)")
		dataset = flag.String("dataset", "", "generate a preset data set instead of reading a file")
		uncon   = flag.Bool("unconstrained", false, "ignore timing constraints (area-only baseline)")
		elmore  = flag.Bool("elmore", false, "use the Elmore RC delay model extension")
		rPerUm  = flag.Float64("r", 0.0005, "wire resistance for -elmore, kΩ/µm")
		fig     = flag.Int("fig", 0, "dump a paper figure: 1 (delay graph), 3 (routing graph), 4 (density chart)")
		netName = flag.String("net", "", "net name for -fig 3 (default: first net)")
		channel = flag.Int("channel", -1, "channel for -fig 4 (default: most congested)")
		timing  = flag.Bool("timing", false, "print an STA-style timing report after routing")
		paths   = flag.Int("paths", 2, "critical paths to list with -timing")
		doCheck = flag.Bool("verify", false, "audit the routing with the structural verifier")
		layout  = flag.Bool("layout", false, "draw an ASCII layout of the routed chip")
		svgOut  = flag.String("svg", "", "write an SVG drawing of the routed chip to this file")
		dbOut   = flag.String("db", "", "write the routing database (JSON handoff) to this file")
		congest = flag.Bool("congestion", false, "print the per-channel congestion table")
		phases  = flag.Bool("phases", false, "print the per-phase breakdown (the Fig. 2 phases for the concurrent engine)")
		engName = flag.String("engine", "", "routing engine: concurrent (default), sequential, or steiner (same router as sequential)")
	)
	flag.Parse()
	switch *fig {
	case 0, 1, 3, 4:
	default:
		fatal(fmt.Errorf("-fig %d: the figures are 1, 3 and 4", *fig))
	}
	if math.IsNaN(*rPerUm) || math.IsInf(*rPerUm, 0) || *rPerUm < 0 {
		fatal(fmt.Errorf("-r %v: the wire resistance must be a finite non-negative number", *rPerUm))
	}

	ckt, err := load(*in, *dataset)
	if err != nil {
		fatal(err)
	}
	// Feed-cell insertion widens the chip's columns but never adds a row,
	// so the routed circuit has the channels the input has.
	if *channel < -1 || *channel >= ckt.Channels() {
		fatal(fmt.Errorf("-channel %d: %s has channels 0 to %d (-1 picks the most congested)", *channel, ckt.Name, ckt.Channels()-1))
	}
	cfg := engine.Config{UseConstraints: !*uncon}
	if *elmore {
		cfg.DelayModel = engine.Elmore
		cfg.RPerUm = *rPerUm
	}
	if *fig == 1 {
		s, err := report.Fig1DelayGraph(ckt, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Print(s)
		return
	}
	res, err := engine.Route(context.Background(), *engName, ckt, cfg)
	if err != nil {
		fatal(err)
	}
	switch *fig {
	case 3:
		net := 0
		if *netName != "" {
			net = -1
			for n := range res.Ckt.Nets {
				if res.Ckt.Nets[n].Name == *netName {
					net = n
				}
			}
			if net == -1 {
				fatal(fmt.Errorf("unknown net %q", *netName))
			}
		}
		fmt.Print(report.Fig3RoutingGraph(res.Ckt, res.Graphs[net]))
		return
	case 4:
		ch := *channel
		if ch < 0 {
			ch, _ = res.Dens.MaxCM()
		}
		fmt.Print(report.Fig4DensityChart(res.Dens, ch))
		return
	}

	if *doCheck {
		v := verify.Routing(res)
		if v.OK() {
			fmt.Println("verify: OK")
		} else {
			for _, p := range v.Problems {
				fmt.Println("verify:", p)
			}
			os.Exit(1)
		}
	}
	if *layout {
		fmt.Print(render.Layout(res))
	}
	ev, err := experiment.Evaluate(res)
	if err != nil {
		fatal(err)
	}
	cr := ev.Channels
	if *doCheck {
		v := verify.Channels(cr)
		hard := 0
		for _, p := range v.Problems {
			if p.Rule == "chan-vcg-waived" {
				fmt.Println("verify: note:", p) // solver-declared quality gap, not an error
				continue
			}
			fmt.Println("verify:", p)
			hard++
		}
		if hard > 0 {
			os.Exit(1)
		}
		fmt.Println("verify: channels OK")
	}
	if *svgOut != "" {
		if err := os.WriteFile(*svgOut, []byte(render.SVG(res, cr)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bgr-route: wrote %s\n", *svgOut)
	}
	if *dbOut != "" {
		db, err := routedb.Build(res, cr)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*dbOut)
		if err != nil {
			fatal(err)
		}
		if err := routedb.Write(f, db); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bgr-route: wrote %s\n", *dbOut)
	}
	if *timing {
		fmt.Print(report.TimingReport(res.Ckt, ev.Timing, *paths))
		fmt.Println()
		fmt.Print(report.SlackHistogram(res.Ckt, ev.Timing, 8))
		fmt.Println()
	}
	if *congest {
		tracks := make([]int, len(cr.Channels))
		for ci := range cr.Channels {
			tracks[ci] = cr.Channels[ci].Tracks
		}
		fmt.Print(report.CongestionTable(res.Dens, tracks))
		fmt.Println()
	}
	_, lb, err := lowerbound.Delay(ckt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("circuit      %s (%d cells, %d nets, %d constraints)\n",
		ckt.Name, len(ckt.Cells), len(ckt.Nets), len(ckt.Cons))
	fmt.Printf("mode         engine=%s constraints=%v model=%v\n", res.Engine, cfg.UseConstraints, modelName(cfg))
	fmt.Printf("delay        %.1f ps (estimate %.1f ps, lower bound %.1f ps)\n", ev.DelayPs, res.Delay, lb)
	if lb > 0 {
		fmt.Printf("vs bound     +%.1f%%\n", (ev.DelayPs-lb)/lb*100)
	}
	fmt.Printf("violations   %d\n", ev.Violations)
	fmt.Printf("area         %.3f mm² (%.0f µm x %.0f µm)\n", cr.AreaMm2, cr.WidthUm, cr.HeightUm)
	fmt.Printf("wire length  %.2f mm\n", cr.TotalLenUm/1000)
	fmt.Printf("feed cells   +%d columns inserted\n", res.AddedPitches)
	fmt.Printf("tracks       %d total over %d channels\n", res.Dens.TotalTracks(), res.Ckt.Channels())
	fmt.Printf("route time   %v\n", res.Duration.Round(time.Microsecond))
	if *phases {
		fmt.Println()
		fmt.Println("phase               deletions  corr branch trunk  feed  reroutes  accepted      time    select  calls    scored    reused    timing flushes      cons")
		for _, ps := range res.Phases {
			fmt.Printf("%-19s %9d %5d %6d %5d %5d %9d %9d %9v %9v %6d %9d %9d %9v %7d %9d\n",
				ps.Name, ps.Deletions, ps.ByKind[rgraph.ECorr], ps.ByKind[rgraph.EBranch],
				ps.ByKind[rgraph.ETrunk], ps.ByKind[rgraph.EFeed], ps.Reroutes, ps.Accepted,
				ps.Duration.Round(time.Microsecond), ps.SelectDuration.Round(time.Microsecond),
				ps.SelectCalls, ps.ScoredNets, ps.ReusedNets,
				ps.TimingDuration.Round(time.Microsecond), ps.TimingFlushes, ps.TimingCons)
		}
	}
}

func load(in, dataset string) (*circuit.Circuit, error) {
	switch {
	case in != "" && dataset != "":
		return nil, fmt.Errorf("use either -i or -dataset, not both")
	case dataset != "":
		p, err := gen.Dataset(dataset)
		if err != nil {
			return nil, err
		}
		return gen.Generate(p)
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return circuit.Parse(f)
	}
	return nil, fmt.Errorf("need -i <file> or -dataset <name>")
}

func modelName(cfg engine.Config) string {
	if cfg.DelayModel == engine.Elmore {
		return "elmore"
	}
	return "lumped"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bgr-route:", err)
	os.Exit(1)
}
