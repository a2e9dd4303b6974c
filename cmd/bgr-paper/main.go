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
	"math"
	"os"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/report"
)

func main() {
	var (
		table   = flag.Int("table", 0, "print only table 1, 2 or 3 (default: everything)")
		elmore  = flag.Bool("elmore", false, "run the whole evaluation under the Elmore RC extension")
		rPerUm  = flag.Float64("r", 0.0005, "wire resistance for -elmore, kΩ/µm")
		csvOut  = flag.String("csv", "", "also write machine-readable results to this file")
		md      = flag.Bool("md", false, "print the tables as markdown (the EXPERIMENTS.md content)")
		scaling = flag.Bool("scaling", false, "print a runtime-scaling table instead of the paper tables")
		robust  = flag.Int("robust", 0, "evaluate N fresh generator seeds and print the robustness statistics")
	)
	flag.Parse()
	if *table < 0 || *table > 3 {
		fatal(fmt.Errorf("-table %d: the tables are 1, 2 and 3 (0 prints everything)", *table))
	}
	if math.IsNaN(*rPerUm) || math.IsInf(*rPerUm, 0) || *rPerUm < 0 {
		fatal(fmt.Errorf("-r %v: the wire resistance must be a finite non-negative number", *rPerUm))
	}
	if *robust < 0 {
		fatal(fmt.Errorf("-robust %d: the number of seeds must not be negative (0 prints the tables)", *robust))
	}

	if *robust > 0 {
		for _, style := range []gen.PlacementStyle{gen.P1, gen.P2} {
			st, err := experiment.Robustness(*robust, style)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("[%v placements] ", style)
			fmt.Print(experiment.RobustnessText(st))
		}
		return
	}
	if *scaling {
		points, err := experiment.Scaling()
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiment.ScalingText(points))
		return
	}

	cfg := engine.Config{}
	if *elmore {
		cfg.DelayModel = engine.Elmore
		cfg.RPerUm = *rPerUm
	}
	rows, err := experiment.RunAll(cfg)
	if err != nil {
		fatal(err)
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		if err := experiment.WriteCSV(f, rows); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bgr-paper:", err)
	os.Exit(1)
}
