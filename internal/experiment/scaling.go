package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
)

// ScalePoint is one circuit size's runtime measurement.
type ScalePoint struct {
	Name        string
	Cells, Nets int
	GenSec      float64
	RouteSec    float64 // includes channel routing and final timing
	DelayPs     float64
}

// Scaling measures end-to-end runtime across circuit sizes: the paper's
// three circuits plus the ~2000-cell stress circuit. The paper reported
// SPARCstation-2 CPU seconds; this is the modern equivalent column.
func Scaling() ([]ScalePoint, error) {
	var out []ScalePoint
	configs := []gen.Params{}
	for _, name := range []string{"C1P1", "C2P1", "C3P1"} {
		p, err := gen.Dataset(name)
		if err != nil {
			return nil, err
		}
		configs = append(configs, p)
	}
	configs = append(configs, gen.StressParams())
	for _, p := range configs {
		t0 := time.Now()
		ckt, err := gen.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		genSec := time.Since(t0).Seconds()
		run, err := RunCircuit(ckt, engine.DefaultName, engine.Config{UseConstraints: true})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		out = append(out, ScalePoint{
			Name:   p.Name,
			Cells:  logicCells(ckt),
			Nets:   len(ckt.Nets),
			GenSec: genSec, RouteSec: run.CPUSec,
			DelayPs: run.DelayPs,
		})
	}
	return out, nil
}

// ScalingText renders the scaling table.
func ScalingText(points []ScalePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Runtime scaling (constrained mode, single-threaded):\n")
	fmt.Fprintf(&b, "%-8s %8s %8s %10s %12s %12s\n", "Circuit", "cells", "nets", "gen(s)", "route(s)", "delay(ps)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8s %8d %8d %10.3f %12.3f %12.1f\n",
			p.Name, p.Cells, p.Nets, p.GenSec, p.RouteSec, p.DelayPs)
	}
	return b.String()
}
