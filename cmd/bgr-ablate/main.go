// Command bgr-ablate runs the DESIGN.md §5 ablations on one data set and
// prints a comparison table: how each design choice of the router moves
// delay, area and run time. It then runs every registered routing engine
// over the full benchmark suite and prints a quality-vs-runtime
// comparison — the axis bgr-serve exposes per job with the "engine"
// config field.
//
// Usage:
//
//	bgr-ablate -dataset C1P1
//	bgr-ablate -engines-only
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/lowerbound"

	_ "repro/internal/seqroute"
	_ "repro/internal/steiner"
)

type variant struct {
	name string
	note string
	cfg  core.Config
}

func main() {
	dataset := flag.String("dataset", "C1P1", "data set to ablate on")
	enginesOnly := flag.Bool("engines-only", false, "skip the ablations; print only the engine comparison")
	flag.Parse()

	if !*enginesOnly {
		if err := ablations(*dataset); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if err := engineTable(); err != nil {
		fatal(err)
	}
}

func ablations(dataset string) error {
	p, err := gen.Dataset(dataset)
	if err != nil {
		return err
	}
	ckt, err := gen.Generate(p)
	if err != nil {
		return err
	}
	_, lb, err := lowerbound.Delay(ckt)
	if err != nil {
		return err
	}

	variants := []variant{
		{"paper", "full algorithm (reference)", core.Config{}},
		{"A1-areaFirst", "density criteria before Gl/LD everywhere", core.Config{AreaFirst: true}},
		{"A3-anyOrder", "feedthroughs assigned in index order", core.Config{Order: core.OrderIndex}},
		{"A4-elmore", "Elmore RC delay model", core.Config{DelayModel: core.Elmore, RPerUm: 0.0005}},
		{"A5-noImprove", "initial routing only", core.Config{SkipImprovement: true}},
		{"A6-noFeedMove", "no feed re-assignment in rip-up", core.Config{NoFeedReroute: true}},
		{"unconstrained", "the paper's baseline", core.Config{}},
	}

	fmt.Printf("ablations on %s (lower bound %.1f ps)\n\n", dataset, lb)
	fmt.Printf("%-14s %10s %8s %10s %8s %7s  %s\n",
		"variant", "delay(ps)", "vs LB", "area(mm2)", "viol", "cpu(s)", "note")
	for _, v := range variants {
		cfg := v.cfg
		cfg.UseConstraints = v.name != "unconstrained"
		run, err := experiment.RunCircuit(ckt, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		fmt.Printf("%-14s %10.1f %+7.1f%% %10.3f %8d %7.3f  %s\n",
			v.name, run.DelayPs, (run.DelayPs-lb)/lb*100, run.AreaMm2, run.Violations, run.CPUSec, v.note)
	}
	return nil
}

// engineTable routes the full benchmark suite with every registered
// engine and prints the quality-vs-runtime comparison. All engines run
// the same constrained configuration; delay/area/violations are
// measured after channel routing, so the numbers are comparable across
// engines (and with the ablation table above).
func engineTable() error {
	fmt.Printf("engine comparison over the full benchmark suite (constrained)\n\n")
	fmt.Printf("%-6s %-12s %10s %8s %10s %9s %6s %7s\n",
		"data", "engine", "delay(ps)", "vs LB", "area(mm2)", "wire(mm)", "viol", "cpu(s)")
	for _, name := range gen.DatasetNames() {
		p, err := gen.Dataset(name)
		if err != nil {
			return err
		}
		ckt, err := gen.Generate(p)
		if err != nil {
			return err
		}
		_, lb, err := lowerbound.Delay(ckt)
		if err != nil {
			return err
		}
		for _, eng := range engine.Names() {
			row, err := runEngine(eng, ckt)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, eng, err)
			}
			fmt.Printf("%-6s %-12s %10.1f %+7.1f%% %10.3f %9.2f %6d %7.3f\n",
				name, eng, row.delay, (row.delay-lb)/lb*100, row.area, row.wireMm, row.viol, row.cpu)
		}
	}
	fmt.Println("\nviol counts delay bounds violated after channel routing. The generated")
	fmt.Println("benchmarks include bounds below the per-net feasibility floor (even")
	fmt.Println("minimal-length trees violate them); the steiner engine provably reaches")
	fmt.Println("that floor, so every meetable bound is met.")
	return nil
}

type engineRow struct {
	delay  float64
	area   float64
	wireMm float64
	viol   int
	cpu    float64
}

func runEngine(name string, ckt *circuit.Circuit) (engineRow, error) {
	start := time.Now()
	res, err := engine.Route(context.Background(), name, ckt, engine.Config{UseConstraints: true})
	if err != nil {
		return engineRow{}, err
	}
	cpu := time.Since(start).Seconds()
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		return engineRow{}, err
	}
	delay, viol, err := experiment.FinalDelay(res.Ckt, cr.NetLenUm)
	if err != nil {
		return engineRow{}, err
	}
	return engineRow{
		delay:  delay,
		area:   cr.AreaMm2,
		wireMm: cr.TotalLenUm / 1000,
		viol:   viol,
		cpu:    cpu,
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bgr-ablate:", err)
	os.Exit(1)
}
