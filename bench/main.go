// Command bench is the repository's benchmark. It times the router as a
// user meets it, from the benchmark's side of each call: engine.Route,
// then chanroute.Route, then experiment.FinalDelay for the closed-loop
// workloads, and HTTP submit, Server.Wait and GET routedb for the
// service. It checks every output and prints each metric by name and
// unit. README.md explains the workloads and the metrics.
//
//	bench -workload paper -seed 1 -seconds 20 -trace 0
//	bench -workload large -trace 1 -spans spans.json
//	bench -seed 2 -out runs.jsonl        (every workload, one process each)
//	bench -compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. An untraced run reports the
// end-to-end metrics, a traced run the per-layer ones. The exit code is
// non-zero when any operation or check failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workloads lists the workload names in the order a full run takes them.
var workloads = []string{"paper", "large", "per-net", "service"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
	out      string
	root     string
}

func main() {
	var o options
	var compare bool
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", ")+" (default: each in its own process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input and the arrival schedule derive from")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds per workload")
	fs.IntVar(&o.trace, "trace", 0, "1 for the traced run that reports the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "file to write the recorded spans to (traced run)")
	fs.StringVar(&o.out, "out", "", "file to append each run's full result to, one JSON object a line")
	fs.StringVar(&o.root, "root", "..", "repository root")
	fs.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare parent.jsonl change.jsonl")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var err error
	switch {
	case compare:
		if fs.NArg() != 2 {
			err = errors.New("-compare takes two result files")
			break
		}
		err = runCompare(os.Stdout, filepath.Join(o.root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.trace != 0 && o.trace != 1:
		err = fmt.Errorf("-trace is 0 or 1, not %d", o.trace)
	case o.seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1")
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(os.Stdout, o, benchScale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in a process of its own, so no workload
// inherits another's heap, caches or goroutines.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		args := []string{"-workload", w, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace), "-root", o.root}
		if o.out != "" {
			args = append(args, "-out", o.out)
		}
		if o.spans != "" {
			args = append(args, "-spans", strings.TrimSuffix(o.spans, ".json")+"."+w+".json")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, "; "))
	}
	return nil
}

// result is one run as -out records it and -compare reads it.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       env                `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"latency_samples"`
	TailP     float64            `json:"tail_percentile"`
	SetupS    []float64          `json:"setup_s_each"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// env records what the numbers were measured on.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func currentEnv() env {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Time: time.Now().UTC().Format(time.RFC3339)}
}

// runOne runs one workload in this process and prints its metrics, the
// JSON summary last.
func runOne(w io.Writer, o options, sc scale) error {
	// Two processors at most: the router's default worker count on the
	// two-core machines the bounds were fixed on, and the same on larger
	// ones.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	r := newRunner(o.seed, time.Duration(o.seconds)*time.Second, o.trace == 1, o.root, sc)
	var err error
	switch o.workload {
	case "paper":
		err = r.runPaper()
	case "large":
		err = r.runLarge()
	case "per-net":
		err = r.runPerNet()
	case "service":
		err = r.runService()
	default:
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	r.finish()

	defs := endToEnd
	if r.tr != nil {
		defs = perLayer
	}
	res := result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: r.tr != nil, Env: currentEnv(),
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Samples: r.samples, TailP: r.tailP, SetupS: r.setupS, Problems: r.problems, Metrics: r.metrics,
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	fmt.Fprintf(w, "# workload %s seed %d: %d operations, %d failed, %d latency samples (p%g has ≥10 beyond)\n",
		o.workload, o.seed, r.attempted, r.failed, r.samples, r.tailP)
	summary := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]metricReport `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricReport{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && r.tr == nil {
			return fmt.Errorf("%s: metric %s was not measured", o.workload, d.name)
		}
		// A per-layer metric of a layer the workload never reaches reads 0.
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
		summary.Metrics[d.name] = metricReport{v, d.unit}
	}

	if r.tr != nil && o.spans != "" {
		if err := writeSpans(o.spans, r.tr.recorded()); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if o.out != "" {
		if err := appendResult(o.out, res); err != nil {
			return fmt.Errorf("write results: %w", err)
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed, %d run checks failed", o.workload, r.failed, r.attempted, r.runProblems)
	}
	return nil
}

// metricReport is one metric in the summary line.
type metricReport struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// appendResult appends one run to a JSON-lines results file.
func appendResult(path string, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
