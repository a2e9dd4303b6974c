package experiment

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/gen"
)

// RobustnessStats summarizes the headline metric over many generator
// seeds — evidence the reproduction's numbers are not a property of the
// checked-in seeds.
type RobustnessStats struct {
	Seeds      int
	Reductions []float64 // improvement as % of lower bound, per seed, sorted
	MeanPct    float64
	MedianPct  float64
	MinPct     float64
	MaxPct     float64
	// NeverWorse counts seeds where the constrained delay was at most the
	// unconstrained delay.
	NeverWorse int
}

// Robustness generates `seeds` C1-sized circuits with fresh seeds and
// evaluates the delay reduction on each.
func Robustness(seeds int, style gen.PlacementStyle) (*RobustnessStats, error) {
	base, err := gen.Dataset("C1P1")
	if err != nil {
		return nil, err
	}
	base.Style = style
	st := &RobustnessStats{Seeds: seeds}
	for i := 0; i < seeds; i++ {
		p := base
		p.Seed = int64(1000 + 7*i)
		p.Name = fmt.Sprintf("R%03d", i)
		ckt, err := gen.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", p.Seed, err)
		}
		row, err := RunGenerated(p.Name, ckt, engine.Config{})
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", p.Seed, err)
		}
		st.Reductions = append(st.Reductions, row.ImprovementPct())
		if row.Con.DelayPs <= row.Unc.DelayPs+1e-6 {
			st.NeverWorse++
		}
	}
	sort.Float64s(st.Reductions)
	for _, v := range st.Reductions {
		st.MeanPct += v
	}
	st.MeanPct /= float64(len(st.Reductions))
	st.MedianPct = st.Reductions[len(st.Reductions)/2]
	st.MinPct = st.Reductions[0]
	st.MaxPct = st.Reductions[len(st.Reductions)-1]
	return st, nil
}

// RobustnessText renders the statistics with a small distribution sketch.
func RobustnessText(st *RobustnessStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Seed robustness: %d fresh circuits (C1-sized)\n", st.Seeds)
	fmt.Fprintf(&b, "  delay reduction (%% of lower bound): mean %.1f, median %.1f, min %.1f, max %.1f\n",
		st.MeanPct, st.MedianPct, st.MinPct, st.MaxPct)
	fmt.Fprintf(&b, "  constrained never worse than unconstrained: %d/%d seeds\n", st.NeverWorse, st.Seeds)
	// Decile sketch.
	b.WriteString("  distribution: ")
	for i := 0; i < 10 && len(st.Reductions) >= 10; i++ {
		v := st.Reductions[i*len(st.Reductions)/10]
		fmt.Fprintf(&b, "%.0f ", v)
	}
	b.WriteString("(deciles)\n")
	return b.String()
}
