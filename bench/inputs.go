package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/lowerbound"
)

// scale holds the counts that set how much work one run does. The
// benchmark runs benchScale; the tests run a much smaller one.
type scale struct {
	setups int // set-up repetitions; setup_s is their median
	minOps int // fewest timed operations; latency_ms.p90 needs 100

	paperPool  int // instance sets of the five data sets
	perNetPool int // instance sets of the per-net shapes
	largePool  int // large circuits
	largeCells int
	largeRows  int

	serviceRate   float64 // arrivals per second
	serviceSample int     // every n-th fresh circuit is re-routed locally

	maxLoop time.Duration // a closed loop that has not reached minOps by then gives up
}

// benchScale sizes a run to its measured seconds plus about ten seconds
// of set-up and verification on a 2-core machine. The pools are as large
// as that allows, because the quality metrics average over them and
// must read alike from one seed to the next.
var benchScale = scale{
	setups:        3,
	minOps:        100,
	paperPool:     16,
	perNetPool:    16,
	largePool:     12,
	largeCells:    3000,
	largeRows:     18,
	serviceRate:   40,
	serviceSample: 10,
	maxLoop:       120 * time.Second,
}

// genSeed shifts a preset generator seed to instance j of seed's pool of
// the given size. Pools of different seeds never overlap, and at seed 1
// instance 0 is the preset itself, so seed 1 routes the paper's Table 1
// circuits first.
func genSeed(preset, seed int64, pool, j int) int64 {
	return preset + (seed-1)*int64(pool) + int64(j)
}

// input is one generated circuit as the program receives it: .ckt text,
// parsed and validated, with the half-perimeter delay lower bound
// (Table 3's reference) that routed delays are checked against, and the
// references the area and wire length of a routing are measured against.
type input struct {
	name    string
	text    string
	ckt     *circuit.Circuit
	lb      []float64 // per constraint, ps
	lbWorst float64
	hpwlUm  float64 // Σ net half-perimeter wire length
	rowsMm2 float64 // area of the placed cell rows, without channels
}

// generate runs the generator and renders the circuit as .ckt text.
func generate(tr *tracer, parent spanID, p gen.Params) (string, *circuit.Circuit, error) {
	sp := tr.begin(parent, opSetup, "gen.generate")
	ckt, err := gen.Generate(p)
	tr.end(sp)
	if err != nil {
		return "", nil, fmt.Errorf("generate %s seed %d: %w", p.Name, p.Seed, err)
	}
	var b strings.Builder
	if err := circuit.Format(&b, ckt); err != nil {
		return "", nil, fmt.Errorf("format %s: %w", p.Name, err)
	}
	return b.String(), ckt, nil
}

// parseInput parses and validates circuit text the way the program's
// front ends do.
func parseInput(tr *tracer, parent spanID, op int, text string) (*circuit.Circuit, error) {
	sp := tr.begin(parent, op, "circuit.parse")
	ckt, err := circuit.Parse(strings.NewReader(text))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	sp = tr.begin(parent, op, "circuit.validate")
	err = ckt.Validate()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	return ckt, nil
}

// newInput prepares one circuit from its text: parse, validate and the
// delay lower bound.
func newInput(tr *tracer, parent spanID, op int, name, text string) (*input, error) {
	ckt, err := parseInput(tr, parent, op, text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	in := &input{name: name, text: text, ckt: ckt}
	sp := tr.begin(parent, op, "lowerbound.delay")
	in.lb, in.lbWorst, err = lowerbound.Delay(ckt)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: lower bound: %w", name, err)
	}
	for _, l := range lowerbound.NetHPWL(ckt) {
		in.hpwlUm += l
	}
	in.rowsMm2 = float64(ckt.Cols) * ckt.Tech.PitchX * float64(ckt.Rows) * ckt.Tech.RowHeight / 1e6
	if !(in.hpwlUm > 0 && in.rowsMm2 > 0) {
		return nil, fmt.Errorf("%s: half-perimeter length %v µm, row area %v mm²", name, in.hpwlUm, in.rowsMm2)
	}
	return in, nil
}

// makeInput generates a circuit and prepares it as an input.
func makeInput(tr *tracer, parent spanID, p gen.Params) (*input, error) {
	text, _, err := generate(tr, parent, p)
	if err != nil {
		return nil, err
	}
	return newInput(tr, parent, opSetup, fmt.Sprintf("%s/%d", p.Name, p.Seed), text)
}

// routeJob is one routing run inside an operation.
type routeJob struct {
	in          *input
	engine      string
	constrained bool
	workers     int
}

// key names the job's distinct (input, engine, mode) combination; every
// run of one key must produce the same bytes.
func (j routeJob) key() string {
	mode := "unconstrained"
	if j.constrained {
		mode = "constrained"
	}
	return j.in.name + "/" + j.engine + "/" + mode
}

// paperPasses builds the paper workload's operations: instance j routes
// each of the five Table 1 data sets with and without constraints on
// the concurrent engine, with one scoring worker.
func paperPasses(tr *tracer, seed int64, pool int) ([][]routeJob, error) {
	passes := make([][]routeJob, pool)
	for j := range passes {
		for _, name := range gen.DatasetNames() {
			p, err := gen.Dataset(name)
			if err != nil {
				return nil, err
			}
			p.Seed = genSeed(p.Seed, seed, pool, j)
			in, err := makeInput(tr, noSpan, p)
			if err != nil {
				return nil, err
			}
			passes[j] = append(passes[j],
				routeJob{in: in, engine: "concurrent", constrained: true, workers: 1},
				routeJob{in: in, engine: "concurrent", constrained: false, workers: 1})
		}
	}
	return passes, nil
}

// perNetShapes are the data sets the per-net workload routes.
var perNetShapes = []string{"C2P1", "C2P2", "C3P1"}

// perNetPasses builds the per-net workload's operations: instance j
// routes the C2P1, C2P2 and C3P1 shapes through the sequential and the
// steiner engine, constrained.
func perNetPasses(tr *tracer, seed int64, pool int) ([][]routeJob, error) {
	passes := make([][]routeJob, pool)
	for j := range passes {
		for _, name := range perNetShapes {
			p, err := gen.Dataset(name)
			if err != nil {
				return nil, err
			}
			p.Seed = genSeed(p.Seed, seed, pool, j)
			in, err := makeInput(tr, noSpan, p)
			if err != nil {
				return nil, err
			}
			passes[j] = append(passes[j],
				routeJob{in: in, engine: "sequential", constrained: true, workers: 1},
				routeJob{in: in, engine: "steiner", constrained: true, workers: 1})
		}
	}
	return passes, nil
}

// largeParams returns the generator parameters of large circuit j: the
// stress preset scaled up.
func largeParams(seed int64, sc scale, j int) gen.Params {
	p := gen.StressParams()
	p.Name = "large"
	p.Cells, p.Rows = sc.largeCells, sc.largeRows
	p.Seed = genSeed(p.Seed, seed, sc.largePool, j)
	return p
}

// largePasses builds the large workload's operations: one constrained
// route of one large circuit each, on the concurrent engine with two
// scoring workers (its default on two cores).
func largePasses(tr *tracer, seed int64, sc scale) ([][]routeJob, error) {
	passes := make([][]routeJob, sc.largePool)
	for j := range passes {
		in, err := makeInput(tr, noSpan, largeParams(seed, sc, j))
		if err != nil {
			return nil, err
		}
		passes[j] = []routeJob{{in: in, engine: "concurrent", constrained: true, workers: 2}}
	}
	return passes, nil
}

// The service workload's traffic mix. Hits answer in well under a
// millisecond and misses take a route, so at an even split the median
// job would sit on the gap between the two and jump from run to run;
// with more misses than hits it is a miss.
const (
	freshShare  = 0.6 // arrivals that bring a circuit the service has not seen
	repeatRange = 16  // a repeat picks one of this many most recent fresh circuits
)

// serviceShapes are the data sets fresh service circuits are drawn from.
// One size class keeps misses in one latency mode: with C2 circuits
// mixed in, the median job falls between the C1 and the C2 misses and
// swings with the mix. Larger circuits are the closed loops' business.
var serviceShapes = []string{"C1P1", "C1P2"}

// arrival is one scheduled service submission.
type arrival struct {
	at    time.Duration // offset from the start of the window
	circ  int           // index of the fresh circuit it submits
	fresh bool          // first submission of that circuit
}

// serviceSchedule derives n arrivals at the given rate from seed, and
// the generator parameters of the fresh circuits they submit. The
// arrival times are a Poisson process conditioned on n arrivals in
// n/rate seconds (sorted uniform draws), so the window has a fixed
// length. Exactly round(freshShare·n) arrivals are fresh, the first one
// among them; each repeat resubmits one of the repeatRange most recent
// fresh circuits, uniformly.
func serviceSchedule(seed int64, n int, rate float64) ([]arrival, []gen.Params, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("service schedule needs at least one arrival")
	}
	rng := rand.New(rand.NewSource(seed))
	window := float64(n) / rate
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * window
	}
	sort.Float64s(at)

	isFresh := make([]bool, n)
	nFresh := max(1, int(math.Round(freshShare*float64(n))))
	for _, i := range rng.Perm(n)[:nFresh] {
		isFresh[i] = true
	}
	if !isFresh[0] {
		for i := range isFresh {
			if isFresh[i] {
				isFresh[0], isFresh[i] = true, false
				break
			}
		}
	}

	arrivals := make([]arrival, n)
	var fresh []gen.Params
	for i := range arrivals {
		arrivals[i].at = time.Duration(at[i] * float64(time.Second))
		if isFresh[i] {
			p, err := gen.Dataset(serviceShapes[rng.Intn(len(serviceShapes))])
			if err != nil {
				return nil, nil, err
			}
			// The index in the name keeps every fresh circuit's text, and so
			// its cache key, distinct.
			p.Name = fmt.Sprintf("%s-%d-%d", p.Name, seed, len(fresh))
			p.Seed = rng.Int63n(1 << 40)
			arrivals[i].circ, arrivals[i].fresh = len(fresh), true
			fresh = append(fresh, p)
			continue
		}
		recent := min(repeatRange, len(fresh))
		arrivals[i].circ = len(fresh) - 1 - rng.Intn(recent)
	}
	return arrivals, fresh, nil
}
