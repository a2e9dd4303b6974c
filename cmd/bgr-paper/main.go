// Command bgr-paper reproduces the paper's evaluation: it generates the
// five data sets (Table 1), routes each with and without constraints
// (Table 2), compares against the half-perimeter lower bound (Table 3),
// and prints the headline statistics next to the paper's own numbers.
//
// Usage:
//
//	bgr-paper            # all tables
//	bgr-paper -table 2   # one table
//	bgr-paper -elmore    # whole evaluation under the RC extension
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/report"
)

func main() {
	var (
		table    = flag.Int("table", 0, "print only table 1, 2 or 3 (default: everything)")
		elmore   = flag.Bool("elmore", false, "run the whole evaluation under the Elmore RC extension")
		rPerUm   = flag.Float64("r", 0.0005, "wire resistance for -elmore, kΩ/µm")
		csvOut   = flag.String("csv", "", "also write machine-readable results to this file")
		md       = flag.Bool("md", false, "print the tables as markdown (the EXPERIMENTS.md content)")
		scaling  = flag.Bool("scaling", false, "print a runtime-scaling table instead of the paper tables")
		baseline = flag.Bool("baseline", false, "append a sequential net-at-a-time baseline block")
		robust   = flag.Int("robust", 0, "evaluate N fresh generator seeds and print the robustness statistics")
	)
	flag.Parse()

	if *robust > 0 {
		for _, style := range []gen.PlacementStyle{gen.P1, gen.P2} {
			st, err := experiment.Robustness(*robust, style)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bgr-paper:", err)
				os.Exit(1)
			}
			fmt.Printf("[%v placements] ", style)
			fmt.Print(experiment.RobustnessText(st))
		}
		return
	}
	if *scaling {
		points, err := experiment.Scaling()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bgr-paper:", err)
			os.Exit(1)
		}
		fmt.Print(experiment.ScalingText(points))
		return
	}

	cfg := core.Config{}
	if *elmore {
		cfg.DelayModel = core.Elmore
		cfg.RPerUm = *rPerUm
	}
	rows, err := experiment.RunAll(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgr-paper:", err)
		os.Exit(1)
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bgr-paper:", err)
			os.Exit(1)
		}
		if err := experiment.WriteCSV(f, rows); err != nil {
			fmt.Fprintln(os.Stderr, "bgr-paper:", err)
			os.Exit(1)
		}
		f.Close()
	}
	if *md {
		fmt.Print(report.Markdown(rows))
		return
	}
	switch *table {
	case 1:
		fmt.Print(report.Table1(rows))
	case 2:
		fmt.Print(report.Table2(rows))
	case 3:
		fmt.Print(report.Table3(rows))
	default:
		fmt.Print(report.Table1(rows))
		fmt.Println()
		fmt.Print(report.Table2(rows))
		fmt.Println()
		fmt.Print(report.Table3(rows))
		fmt.Println()
		fmt.Print(report.HeadlineText(experiment.Summarize(rows), len(rows)))
	}
	if *baseline {
		fmt.Println()
		fmt.Println("-- Sequential net-at-a-time baseline (refs [6-8]) --")
		fmt.Printf("%-6s %10s %10s %10s %9s\n", "Data", "Delay(ps)", "Area(mm2)", "Len(mm)", "CPU(s)")
		for _, name := range gen.DatasetNames() {
			p, err := gen.Dataset(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bgr-paper:", err)
				os.Exit(1)
			}
			ckt, err := gen.Generate(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bgr-paper:", err)
				os.Exit(1)
			}
			run, err := experiment.RunBaseline(ckt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bgr-paper:", err)
				os.Exit(1)
			}
			fmt.Printf("%-6s %10.1f %10.3f %10.2f %9.3f\n",
				name, run.DelayPs, run.AreaMm2, run.LengthMm, run.CPUSec)
		}
	}
}
