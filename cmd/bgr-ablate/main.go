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
	"flag"
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/lowerbound"
)

type variant struct {
	name string
	note string
	cfg  engine.Config
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
		{"paper", "full algorithm (reference)", engine.Config{}},
		{"A1-areaFirst", "density criteria before Gl/LD everywhere", engine.Config{AreaFirst: true}},
		{"A3-anyOrder", "feedthroughs assigned in index order", engine.Config{Order: engine.OrderIndex}},
		{"A4-elmore", "Elmore RC delay model", engine.Config{DelayModel: engine.Elmore, RPerUm: 0.0005}},
		{"A5-noImprove", "initial routing only", engine.Config{SkipImprovement: true}},
		{"A6-noFeedMove", "no feed re-assignment in rip-up", engine.Config{NoFeedReroute: true}},
		{"unconstrained", "the paper's baseline", engine.Config{}},
	}

	fmt.Printf("ablations on %s (lower bound %.1f ps)\n\n", dataset, lb)
	fmt.Printf("%-14s %10s %8s %10s %8s %7s  %s\n",
		"variant", "delay(ps)", "vs LB", "area(mm2)", "viol", "cpu(s)", "note")
	for _, v := range variants {
		cfg := v.cfg
		cfg.UseConstraints = v.name != "unconstrained"
		run, err := experiment.RunCircuit(ckt, engine.DefaultName, cfg)
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
// the same constrained configuration and both tables measure through
// experiment.RunCircuit, so every column, cpu included, is comparable
// across engines and with the ablation table above. It closes with how
// many of each data set's bounds lie below their lower-bound delay.
func engineTable() error {
	fmt.Printf("engine comparison over the full benchmark suite (constrained)\n\n")
	fmt.Printf("%-6s %-12s %10s %8s %10s %9s %6s %7s\n",
		"data", "engine", "delay(ps)", "vs LB", "area(mm2)", "wire(mm)", "viol", "cpu(s)")
	var floors []string
	for _, name := range gen.DatasetNames() {
		p, err := gen.Dataset(name)
		if err != nil {
			return err
		}
		ckt, err := gen.Generate(p)
		if err != nil {
			return err
		}
		lbCons, lb, err := lowerbound.Delay(ckt)
		if err != nil {
			return err
		}
		below := 0
		for c, d := range lbCons {
			if ckt.Cons[c].Limit < d {
				below++
			}
		}
		floors = append(floors, fmt.Sprintf("  %-6s %d of %d", name, below, len(lbCons)))
		for _, eng := range engine.Names() {
			run, err := experiment.RunCircuit(ckt, eng, engine.Config{UseConstraints: true})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, eng, err)
			}
			fmt.Printf("%-6s %-12s %10.1f %+7.1f%% %10.3f %9.2f %6d %7.3f\n",
				name, eng, run.DelayPs, (run.DelayPs-lb)/lb*100, run.AreaMm2, run.LengthMm, run.Violations, run.CPUSec)
		}
	}
	fmt.Println("\nviol counts delay bounds violated after channel routing. Bounds below")
	fmt.Println("their half-perimeter lower-bound delay, which no routing can meet:")
	for _, f := range floors {
		fmt.Println(f)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bgr-ablate:", err)
	os.Exit(1)
}
