package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {50000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{7, 1, 3, 5, 9, 2, 8, 4, 6, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if xs[0] != 7 {
		t.Error("the helpers reordered their input")
	}
}

func TestCompareVerdicts(t *testing.T) {
	around := func(m float64, n int, jitter float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = m * (1 + jitter*float64(i%5-2)/2)
		}
		return xs
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higher         bool
		bound          float64
		want           string
		wantWins       float64
	}{
		{"same", around(100, 10, 0.01), around(100, 10, 0.01), false, 0.1, unchanged, 0},
		{"within bound", around(100, 10, 0.01), around(105, 10, 0.01), false, 0.1, unchanged, 0},
		{"worse", around(100, 10, 0.01), around(120, 10, 0.01), false, 0.1, worse, 0},
		{"better", around(100, 10, 0.01), around(80, 10, 0.01), false, 0.1, better, 1},
		{"better when higher", around(100, 10, 0.01), around(120, 10, 0.01), true, 0.1, better, 1},
		{"worse when higher", around(100, 10, 0.01), around(80, 10, 0.01), true, 0.1, worse, 0},
		{"too noisy", around(100, 10, 0.2), around(103, 10, 0.2), false, 0.1, unresolved, 0},
		{"noisy but every run better", []float64{100, 130, 160}, []float64{40, 50, 60}, false, 0.1, better, math.NaN()},
		{"noisy but every run worse", []float64{40, 50, 60}, []float64{100, 130, 160}, false, 0.1, worse, math.NaN()},
		{"few pairs, overlapping", []float64{100, 101, 99}, []float64{90, 99.5, 91}, false, 0.1, unchanged, math.NaN()},
		{"no change runs", around(100, 10, 0.01), nil, false, 0.1, unresolved, math.NaN()},
	} {
		got := compareRuns(c.parent, c.change, c.higher, c.bound)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got.verdict, c.want)
		}
		if math.IsNaN(c.wantWins) != math.IsNaN(got.winRate) || !math.IsNaN(c.wantWins) && got.winRate != c.wantWins {
			t.Errorf("%s: win rate %v, want %v", c.name, got.winRate, c.wantWins)
		}
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs []result) string {
		path := filepath.Join(dir, name)
		for _, r := range runs {
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	var parent, change []result
	for i := 0; i < 10; i++ {
		parent = append(parent, result{Workload: "paper", Metrics: map[string]float64{"latency_ms.p50": 100 + float64(i%3)}})
		change = append(change, result{Workload: "paper", Metrics: map[string]float64{"latency_ms.p50": 70 + float64(i%3)}})
		// Traced runs are not end-to-end measurements and must be ignored.
		change = append(change, result{Workload: "paper", Traced: true, Metrics: map[string]float64{"latency_ms.p50": 1000}})
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [{"name": "latency_ms.p50", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runCompare(&out, bench, write("parent.jsonl", parent), write("change.jsonl", change)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want a header and one row, got:\n%s", out.String())
	}
	if row := lines[1]; !strings.Contains(row, "paper") || !strings.Contains(row, better) || !strings.Contains(row, "100% of 10") {
		t.Errorf("row %q: want paper, better, 100%% of 10 pairs", row)
	}
}

// inputTexts returns every circuit text and the arrival schedule a seed
// derives, at the test scale.
func inputTexts(t *testing.T, seed int64) ([]string, []arrival) {
	t.Helper()
	var texts []string
	add := func(passes [][]routeJob, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range passes {
			for _, j := range p {
				texts = append(texts, j.in.text)
			}
		}
	}
	add(paperPasses(nil, seed, testScale.paperPool))
	add(perNetPasses(nil, seed, testScale.perNetPool))
	add(largePasses(nil, seed, testScale))
	arrivals, params, err := serviceSchedule(seed, 50, testScale.serviceRate)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range params {
		text, _, err := generate(nil, noSpan, p)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, text)
	}
	return texts, arrivals
}

func TestSeedDerivation(t *testing.T) {
	a, arrA := inputTexts(t, 3)
	b, arrB := inputTexts(t, 3)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(arrA, arrB) {
		t.Fatal("the same seed derived different inputs")
	}
	c, arrC := inputTexts(t, 4)
	if len(a) != len(c) {
		t.Fatalf("seeds 3 and 4 derived %d and %d circuits", len(a), len(c))
	}
	for i := range a {
		if a[i] == c[i] {
			t.Errorf("circuit %d is the same for seeds 3 and 4", i)
		}
	}
	if reflect.DeepEqual(arrA, arrC) {
		t.Error("seeds 3 and 4 derived the same arrival schedule")
	}
	fresh := 0
	for i, x := range arrA {
		if i > 0 && x.at < arrA[i-1].at {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
		if x.fresh {
			fresh++
		}
	}
	if !arrA[0].fresh || fresh != int(math.Round(freshShare*float64(len(arrA)))) {
		t.Errorf("%d of %d arrivals fresh, first fresh %v", fresh, len(arrA), arrA[0].fresh)
	}
}

// testScale runs every workload in well under a second of routing.
var testScale = scale{
	setups:        2,
	minOps:        3,
	paperPool:     1,
	perNetPool:    1,
	largePool:     1,
	largeCells:    400,
	largeRows:     8,
	serviceRate:   40,
	serviceSample: 1,
	maxLoop:       time.Minute,
}

// TestSmoke runs every workload, untraced and traced, at the test scale
// and checks that each reports exactly the metrics BENCHMARK.json names
// and that no operation failed. At seed 1 the paper workload also checks
// the golden tables.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("routes every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	for _, c := range []struct {
		listed []metric
		defs   []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		var want []metric
		for _, d := range c.defs {
			want = append(want, metric{d.name, d.unit, d.better})
		}
		if !reflect.DeepEqual(c.listed, want) {
			t.Errorf("BENCHMARK.json lists\n%v\nthe benchmark reports\n%v", c.listed, want)
		}
	}

	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			var out bytes.Buffer
			o := options{workload: w, seed: 1, seconds: 1, trace: trace, root: ".."}
			if err := runOne(&out, o, testScale); err != nil {
				t.Errorf("%s trace %d: %v\n%s", w, trace, err, out.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var sum struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w, trace, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < testScale.minOps {
				t.Errorf("%s trace %d: correct %v, %d of %d failed", w, trace, sum.Correct, sum.Failed, sum.Attempted)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(sum.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w, trace, len(sum.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := sum.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: no metric %s", w, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace %d: %s unit %q, want %q", w, trace, d.name, m.Unit, d.unit)
				case trace == 0 && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}
