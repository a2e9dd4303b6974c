package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchFile is the part of BENCHMARK.json -compare reads: the
// end-to-end metrics with their direction and regression bound.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one workload × metric comparison.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a win rate is reported for.
const minPairs = 10

// comparison is the outcome for one workload and metric.
type comparison struct {
	parent, change []float64
	verdict        string
	winRate        float64 // share of pairs the change won; NaN below minPairs pairs
}

// compareRuns judges one metric across parent and change runs, whose
// i-th entries form a pair. higher says whether a larger value is
// better; bound is the share of the parent's median the metric may
// worsen by.
//
//   - worse: the change's median is worse than the parent's by more
//     than the bound.
//   - unresolved: a side's spread (interquartile distance over median)
//     exceeds the bound, unless every change run beats (or, for worse,
//     loses to) every parent run.
//   - better: the medians differ by more than the parent's spread and
//     the change wins at least nine in ten pairs (every run against
//     every run below minPairs pairs).
//   - unchanged otherwise.
func compareRuns(parent, change []float64, higher bool, bound float64) comparison {
	c := comparison{parent: parent, change: change, winRate: math.NaN()}
	if len(parent) == 0 || len(change) == 0 {
		c.verdict = unresolved
		return c
	}
	gain := func(from, to float64) float64 { // positive when to is better
		if higher {
			return to - from
		}
		return from - to
	}
	pm, cm := median(parent), median(change)
	base := math.Abs(pm)
	if base == 0 {
		base = math.SmallestNonzeroFloat64
	}
	rel := gain(pm, cm) / base
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / base
	}

	allBetter, allWorse := true, true
	for _, p := range parent {
		for _, x := range change {
			g := gain(p, x)
			allBetter = allBetter && g > 0
			allWorse = allWorse && g < 0
		}
	}
	pairs := min(len(parent), len(change))
	if pairs >= minPairs {
		wins := 0
		for i := 0; i < pairs; i++ {
			if gain(parent[i], change[i]) > 0 {
				wins++
			}
		}
		c.winRate = float64(wins) / float64(pairs)
	}
	convincing := allBetter
	if pairs >= minPairs {
		convincing = c.winRate >= 0.9
	}

	switch {
	case allBetter && rel > spread(parent):
		c.verdict = better
	case allWorse && -rel > bound:
		c.verdict = worse
	case max(spread(parent), spread(change)) > bound:
		c.verdict = unresolved
	case -rel > bound:
		c.verdict = worse
	case rel > spread(parent) && convincing:
		c.verdict = better
	default:
		c.verdict = unchanged
	}
	return c
}

// readResults reads a JSON-lines results file written by -out.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series collects one metric of the untraced runs of one workload, in
// file order.
func series(runs []result, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// runCompare prints one row per workload × end-to-end metric of two
// results files: each side's median and quartiles, the verdict, and the
// pair win rate where there are enough pairs.
func runCompare(w io.Writer, benchPath, parentPath, changePath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range append(append([]result(nil), parent...), change...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	order := map[string]int{}
	for i, n := range workloads {
		order[n] = i + 1
	}
	sort.SliceStable(names, func(a, b int) bool { return order[names[a]] < order[names[b]] })

	fmt.Fprintf(w, "%-8s %-16s %8s %-32s %-32s %-10s %s\n",
		"workload", "metric", "bound", "parent median [q1, q3] (n)", "change median [q1, q3] (n)", "verdict", "pair wins")
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			c := compareRuns(series(parent, wl, m.Name), series(change, wl, m.Name), m.Better == "higher", m.Bound)
			wins := "-"
			if !math.IsNaN(c.winRate) {
				wins = fmt.Sprintf("%.0f%% of %d", 100*c.winRate, min(len(c.parent), len(c.change)))
			}
			fmt.Fprintf(w, "%-8s %-16s %7.1f%% %-32s %-32s %-10s %s\n",
				wl, m.Name, 100*m.Bound, summarize(c.parent), summarize(c.change), c.verdict, wins)
		}
	}
	return nil
}

// summarize formats a side's median and quartiles.
func summarize(xs []float64) string {
	if len(xs) == 0 {
		return "no runs"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%s [%s, %s] (%d)", num(median(xs)), num(q1), num(q3), len(xs))
}

// num formats a value with four significant digits, without an exponent
// for the magnitudes metrics take.
func num(x float64) string {
	if math.Abs(x) >= 1000 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4g", x)
}
