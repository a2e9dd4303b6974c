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
//	bgr-route -i design.ckt -elmore -r 0.0005 -trace
//	bgr-route -i design.ckt -engine steiner
//	bgr-route -wire 127.0.0.1:8081 -i design.ckt -timing
//
// -engine selects the routing engine: "concurrent" (the paper's router,
// default), "sequential" (net-at-a-time baseline) or "steiner"
// (timing-constrained cost-distance Steiner trees). It works both
// locally and with -wire.
//
// With -wire the circuit is not routed locally: it is submitted to a
// running bgr-serve wire listener over the binary protocol, and the
// result artifacts are fetched back over the same connection.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/dgraph"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/lowerbound"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/routedb"
	"repro/internal/service"
	"repro/internal/verify"
	"repro/internal/wire"

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
		trace   = flag.Bool("trace", false, "print the Fig. 2 phase trace")
		fig     = flag.Int("fig", 0, "dump a paper figure: 1 (delay graph), 3 (routing graph), 4 (density chart)")
		netName = flag.String("net", "", "net name for -fig 3 (default: first net)")
		channel = flag.Int("channel", -1, "channel for -fig 4 (default: most congested)")
		timing  = flag.Bool("timing", false, "print an STA-style timing report after routing")
		paths   = flag.Int("paths", 2, "critical paths to list with -timing")
		doCheck = flag.Bool("verify", false, "audit the routing with the structural verifier")
		layout  = flag.Bool("layout", false, "draw an ASCII layout of the routed chip")
		svgOut  = flag.String("svg", "", "write an SVG drawing of the routed chip to this file")
		greedy  = flag.Bool("greedy", false, "use the greedy channel router instead of left-edge")
		dbOut   = flag.String("db", "", "write the routing database (JSON handoff) to this file")
		congest = flag.Bool("congestion", false, "print the per-channel congestion table")
		phases  = flag.Bool("phases", false, "print the per-phase wall-clock breakdown")
		wireTo  = flag.String("wire", "", "route remotely: submit to a bgr-serve wire listener at this address")
		engName = flag.String("engine", "", "routing engine: concurrent (default), sequential, steiner")
	)
	flag.Parse()

	if *wireTo != "" {
		if *fig != 0 || *trace || *doCheck || *congest || *phases {
			fatal(fmt.Errorf("-fig/-trace/-verify/-congestion/-phases are local-only; not available with -wire"))
		}
		jc := service.JobConfig{UseConstraints: !*uncon, GreedyChannels: *greedy}
		if *elmore {
			jc.DelayModel = "elmore"
			jc.RPerUm = *rPerUm
		}
		if err := routeRemote(*wireTo, *in, *dataset, jc, *engName, remoteOut{
			db: *dbOut, svg: *svgOut, timing: *timing, layout: *layout,
		}); err != nil {
			fatal(err)
		}
		return
	}

	ckt, err := load(*in, *dataset)
	if err != nil {
		fatal(err)
	}
	cfg := engine.Config{UseConstraints: !*uncon}
	if *elmore {
		cfg.DelayModel = engine.Elmore
		cfg.RPerUm = *rPerUm
	}
	if *trace {
		cfg.Trace = os.Stderr
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
	algo := chanroute.LeftEdge
	if *greedy {
		algo = chanroute.Greedy
	}
	cr, err := chanroute.RouteWith(res.Ckt, res.Graphs, algo)
	if err != nil {
		fatal(err)
	}
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
		f.Close()
		fmt.Fprintf(os.Stderr, "bgr-route: wrote %s\n", *dbOut)
	}
	delay, viol, err := experiment.FinalDelay(res.Ckt, cr.NetLenUm)
	if err != nil {
		fatal(err)
	}
	if *timing {
		dg, err := dgraph.New(res.Ckt)
		if err != nil {
			fatal(err)
		}
		tm := dg.NewTiming()
		tm.SetLumped(cr.NetLenUm)
		tm.Analyze()
		fmt.Print(report.TimingReport(res.Ckt, tm, *paths))
		fmt.Println()
		fmt.Print(report.SlackHistogram(res.Ckt, tm, 8))
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
	fmt.Printf("delay        %.1f ps (estimate %.1f ps, lower bound %.1f ps)\n", delay, res.Delay, lb)
	if lb > 0 {
		fmt.Printf("vs bound     +%.1f%%\n", (delay-lb)/lb*100)
	}
	fmt.Printf("violations   %d\n", viol)
	fmt.Printf("area         %.3f mm² (%.0f µm x %.0f µm)\n", cr.AreaMm2, cr.WidthUm, cr.HeightUm)
	fmt.Printf("wire length  %.2f mm\n", cr.TotalLenUm/1000)
	fmt.Printf("feed cells   +%d columns inserted\n", res.AddedPitches)
	fmt.Printf("tracks       %d total over %d channels\n", res.Dens.TotalTracks(), res.Ckt.Channels())
	fmt.Printf("route time   %v\n", res.Duration.Round(time.Microsecond))
	if *phases {
		fmt.Println()
		fmt.Println("phase                    deletions  reroutes  accepted      time    select    scored    reused    timing      cons")
		for _, ps := range res.Phases {
			fmt.Printf("%-24s %9d %9d %9d %9v %9v %9d %9d %9v %9d\n",
				ps.Name, ps.Deletions, ps.Reroutes, ps.Accepted, ps.Duration.Round(time.Microsecond),
				ps.SelectDuration.Round(time.Microsecond), ps.ScoredNets, ps.ReusedNets,
				ps.TimingDuration.Round(time.Microsecond), ps.TimingCons)
		}
	}
}

// remoteOut selects which artifacts to fetch back after a -wire run.
type remoteOut struct {
	db     string // write routedb JSON here
	svg    string // write the SVG drawing here
	timing bool   // print the timing report
	layout bool   // print the ASCII layout
}

// routeRemote submits the circuit to a bgr-serve wire listener, waits
// for the job, fetches the requested artifacts over the same pipelined
// connection, and prints the routed summary. A non-default engineName
// rides the TSubmitV2 frame's engine field; the default stays on the v1
// frame for old-server interop.
func routeRemote(addr, in, dataset string, jc service.JobConfig, engineName string, out remoteOut) error {
	cktText, err := circuitText(in, dataset)
	if err != nil {
		return err
	}
	cfgJSON, err := json.Marshal(jc)
	if err != nil {
		return err
	}
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	rep, err := c.SubmitEngine(cktText, cfgJSON, engineName, 0)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bgr-route: job %s on %s (cached=%v dedup=%v)\n", rep.ID, addr, rep.Cached, rep.Dedup)
	stJSON, err := c.Wait(rep.ID)
	if err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	var st service.Status
	if err := json.Unmarshal(stJSON, &st); err != nil {
		return fmt.Errorf("decode status: %w", err)
	}
	if st.State != service.Done {
		return fmt.Errorf("job %s: %s: %s", st.ID, st.State, st.Error)
	}

	if out.db != "" {
		b, err := c.Result(rep.ID, wire.KindRouteDB)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out.db, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bgr-route: wrote %s\n", out.db)
	}
	if out.svg != "" {
		b, err := c.Result(rep.ID, wire.KindSVG)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out.svg, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bgr-route: wrote %s\n", out.svg)
	}
	if out.layout {
		b, err := c.Result(rep.ID, wire.KindLayout)
		if err != nil {
			return err
		}
		os.Stdout.Write(b)
	}
	if out.timing {
		b, err := c.Result(rep.ID, wire.KindTiming)
		if err != nil {
			return err
		}
		os.Stdout.Write(b)
		fmt.Println()
	}

	s := st.Summary
	if s == nil {
		return fmt.Errorf("job %s finished without a summary", st.ID)
	}
	fmt.Printf("circuit      %s (%d nets, %d constraints)\n", st.Circuit, s.Nets, s.Constraints)
	fmt.Printf("mode         engine=%s constraints=%v model=%s\n", st.Engine, jc.UseConstraints, remoteModelName(jc))
	fmt.Printf("delay        %.1f ps\n", s.DelayPs)
	fmt.Printf("violations   %d\n", s.Violations)
	fmt.Printf("area         %.3f mm²\n", s.AreaMm2)
	fmt.Printf("wire length  %.2f mm\n", s.WirelenMm)
	fmt.Printf("feed cells   +%d columns inserted\n", s.AddedPitches)
	fmt.Printf("tracks       %d total\n", s.Tracks)
	return nil
}

// circuitText returns the circuit source text to put on the wire: raw
// file bytes for -i, or the generated preset rendered back to the text
// format for -dataset.
func circuitText(in, dataset string) (string, error) {
	switch {
	case in != "" && dataset != "":
		return "", fmt.Errorf("use either -i or -dataset, not both")
	case dataset != "":
		p, err := gen.Dataset(dataset)
		if err != nil {
			return "", err
		}
		ckt, err := gen.Generate(p)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		if err := circuit.Format(&buf, ckt); err != nil {
			return "", err
		}
		return buf.String(), nil
	case in != "":
		b, err := os.ReadFile(in)
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
	return "", fmt.Errorf("need -i <file> or -dataset <name>")
}

func remoteModelName(jc service.JobConfig) string {
	if jc.DelayModel == "elmore" {
		return "elmore"
	}
	return "lumped"
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
