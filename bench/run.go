package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/chanroute"
	"repro/internal/dgraph"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/routedb"
	"repro/internal/verify"

	// The workloads route through every registered engine.
	_ "repro/internal/core"
	_ "repro/internal/seqroute"
	_ "repro/internal/steiner"
)

// runner carries one workload run: its settings, its tracer, and what it
// has measured and checked so far.
type runner struct {
	seed    int64
	seconds time.Duration
	root    string // repository root, for testdata/golden_tables.txt
	sc      scale
	tr      *tracer // nil on an untraced run

	attempted, failed int
	problems          []string // failure messages, for the log
	runProblems       int      // failed checks of the run as a whole

	setupS   []float64
	metrics  map[string]float64 // every metric this run measured
	samples  int                // latency samples behind the percentiles
	tailP    float64            // highest tail percentile with ≥10 samples beyond
	measured phaseTotals        // phase clocks of the routes timed in traced operations
	counted  phaseTotals        // phase counters of the reference routes
	quality  quality
	refDelay map[string]float64 // worst delay of each reference route, by job key
	dbBytes  []int              // canonical routedb size of each reference route
	checks   []spanRun          // engine route spans next to the engine's own clock
}

func newRunner(seed int64, seconds time.Duration, traced bool, root string, sc scale) *runner {
	r := &runner{seed: seed, seconds: seconds, root: root, sc: sc,
		metrics: map[string]float64{}, refDelay: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	r.measured.phase = map[string]time.Duration{}
	r.counted.phase = map[string]time.Duration{}
	return r
}

const maxProblems = 20

// opFailed records a failed operation.
func (r *runner) opFailed(err error) {
	r.failed++
	r.note(err)
}

// runFailed records a failed check of the run as a whole (golden tables,
// generator health, span agreement).
func (r *runner) runFailed(err error) {
	r.runProblems++
	r.note(err)
}

func (r *runner) note(err error) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, err.Error())
	}
}

// correct reports whether every operation and every run-level check
// passed.
func (r *runner) correct() bool { return r.failed == 0 && r.runProblems == 0 }

// opTracer returns the tracer for timed operation op: a traced run
// traces every other operation so that the untraced ones give the
// overhead baseline. Shifting by op/pool alternates which pool members
// are traced from one cycle to the next, so both halves cover the pool.
func (r *runner) opTracer(op, pool int) *tracer {
	if r.tr == nil || (op+op/pool)%2 == 0 {
		return nil
	}
	return r.tr
}

// timedSetups runs build sc.setups times and records the wall time of
// each; setup_s is their median. Only the last build is traced, and
// build is told which one is last so it can keep that one's state.
func (r *runner) timedSetups(build func(tr *tracer, last bool) error) error {
	for i := 0; i < r.sc.setups; i++ {
		last := i == r.sc.setups-1
		var tr *tracer
		if last {
			tr = r.tr
		}
		t0 := time.Now()
		if err := build(tr, last); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	r.metrics["setup_s"] = median(r.setupS)
	return nil
}

// setLatency records the end-to-end latency percentiles of a run.
func (r *runner) setLatency(lat []float64) {
	r.samples = len(lat)
	r.tailP = tailPercentile(len(lat))
	r.metrics["latency_ms.p50"] = percentile(lat, 50)
	r.metrics["latency_ms.p90"] = percentile(lat, 90)
	if r.samples < r.sc.minOps {
		r.runFailed(fmt.Errorf("%d latency samples, fewer than the %d the run needs", r.samples, r.sc.minOps))
	}
}

// setOverhead records how much slower the traced operations of a traced
// run were than the untraced ones, in percent of the untraced median.
func (r *runner) setOverhead(traced, plain []float64) {
	if r.tr == nil || len(traced) == 0 || len(plain) == 0 {
		return
	}
	base := median(plain)
	r.metrics["bench.trace_overhead_pct"] = (median(traced) - base) / base * 100
}

// memSampler reads the process's CPU time and the runtime's allocation
// and GC counters without stopping the world.
type memSampler struct{ s []metrics.Sample }

func newMemSampler() *memSampler {
	return &memSampler{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
	}}
}

// memStat is one reading of the counters, or the difference of two.
type memStat struct {
	allocBytes, allocObjs, liveBytes, gcCycles uint64
	cpu                                        time.Duration // user plus system, every thread
	gcPause                                    float64       // GC pause, CPU-seconds (GOMAXPROCS × wall)
}

func (m *memSampler) read() memStat {
	metrics.Read(m.s)
	return memStat{m.s[0].Value.Uint64(), m.s[1].Value.Uint64(), m.s[2].Value.Uint64(), m.s[3].Value.Uint64(),
		cpuTime(), m.s[4].Value.Float64()}
}

// since returns the counters accumulated from a to m, with m's live heap.
func (m memStat) since(a memStat) memStat {
	return memStat{m.allocBytes - a.allocBytes, m.allocObjs - a.allocObjs, m.liveBytes, m.gcCycles - a.gcCycles,
		m.cpu - a.cpu, m.gcPause - a.gcPause}
}

// usage sums the counters over the measured operations.
type usage struct {
	ops     int
	sum     memStat
	maxLive uint64
}

func (u *usage) add(d memStat) {
	u.ops++
	u.sum.allocBytes += d.allocBytes
	u.sum.allocObjs += d.allocObjs
	u.sum.gcCycles += d.gcCycles
	u.sum.cpu += d.cpu
	u.sum.gcPause += d.gcPause
	u.maxLive = max(u.maxLive, d.liveBytes)
}

// setUsage records the per-operation runtime metrics.
func (r *runner) setUsage(u usage) {
	n := float64(max(u.ops, 1))
	r.metrics["runtime.cpu_ms_per_op"] = float64(u.sum.cpu) / 1e6 / n
	r.metrics["runtime.gc_pause_ms"] = u.sum.gcPause / float64(runtime.GOMAXPROCS(0)) * 1000 / n
	r.metrics["runtime.allocs_per_op"] = float64(u.sum.allocObjs) / n
	r.metrics["runtime.gc_count_per_op"] = float64(u.sum.gcCycles) / n
	r.metrics["alloc_mb_per_op"] = float64(u.sum.allocBytes) / 1e6 / n
	r.metrics["heap_live_mb"] = float64(u.maxLive) / 1e6
}

// cpuTime is the user plus system CPU time of the process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// enginePkg names the package behind each engine, which names its span.
var enginePkg = map[string]string{"concurrent": "core", "sequential": "seqroute", "steiner": "steiner"}

// routed is what one routing run produced.
type routed struct {
	res   *engine.Result
	cr    *chanroute.Result
	delay float64 // worst post-channel-routing path delay, ps
	viol  int
	span  spanID // the engine route span, when traced
}

// run executes the job through the user-visible pipeline: the engine,
// channel routing and the final timing analysis.
func (j routeJob) run(tr *tracer, parent spanID, op, workers int) (routed, error) {
	var out routed
	out.span = tr.begin(parent, op, enginePkg[j.engine]+".route")
	res, err := engine.Route(context.Background(), j.engine, j.in.ckt,
		engine.Config{UseConstraints: j.constrained, Workers: workers})
	tr.end(out.span)
	if err != nil {
		return out, fmt.Errorf("%s: route: %w", j.key(), err)
	}
	out.res = res
	sp := tr.begin(parent, op, "chanroute.route")
	out.cr, err = chanroute.Route(res.Ckt, res.Graphs)
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("%s: channel route: %w", j.key(), err)
	}
	sp = tr.begin(parent, op, "experiment.final_delay")
	out.delay, out.viol, err = experiment.FinalDelay(res.Ckt, out.cr.NetLenUm)
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("%s: final delay: %w", j.key(), err)
	}
	return out, nil
}

// fingerprint builds and validates the routing database of a run and
// returns the sha256 of its canonical bytes and their length.
func fingerprint(tr *tracer, parent spanID, op int, out routed) ([32]byte, int, error) {
	sp := tr.begin(parent, op, "routedb.build")
	db, err := routedb.Build(out.res, out.cr)
	tr.end(sp)
	if err != nil {
		return [32]byte{}, 0, err
	}
	if err := db.Validate(); err != nil {
		return [32]byte{}, 0, err
	}
	sp = tr.begin(parent, op, "routedb.marshal")
	b, err := routedb.Marshal(db)
	tr.end(sp)
	if err != nil {
		return [32]byte{}, 0, err
	}
	return sha256.Sum256(b), len(b), nil
}

// audit runs the structural audits on a routing: the verify rules the
// engine promises (differential-pair parallelism only for the
// concurrent engine) and the channel-routing checks, where a solver's
// declared "chan-vcg-waived" note is a quality gap, not an error.
func audit(j routeJob, out routed) error {
	res := out.res
	v := verify.Check(verify.Parts{
		Ckt: res.Ckt, Geo: res.Geo, Feeds: res.Feeds, Graphs: res.Graphs,
		WirelenUm: res.WirelenUm, Dens: res.Dens, CheckPairs: j.engine == engine.DefaultName,
	})
	if !v.OK() {
		return fmt.Errorf("%s: verify: %v (%d problems)", j.key(), v.Problems[0], len(v.Problems))
	}
	for _, p := range verify.Channels(out.cr).Problems {
		if p.Rule != "chan-vcg-waived" {
			return fmt.Errorf("%s: verify channels: %v", j.key(), p)
		}
	}
	return nil
}

// checkLowerBound checks the routed worst delay against the input's
// half-perimeter lower bound.
func checkLowerBound(j routeJob, delay float64) error {
	if delay < j.in.lbWorst*(1-1e-9) {
		return fmt.Errorf("%s: delay %.3f ps below the lower bound %.3f ps", j.key(), delay, j.in.lbWorst)
	}
	return nil
}

// spanRun pairs an engine route span with the engine's own clock.
type spanRun struct {
	span spanID
	dur  time.Duration
}

// phaseTotals sums the phase statistics of concurrent-engine routes.
type phaseTotals struct {
	routes                                                 int
	prephase, selectDur, flushDur                          time.Duration
	phase                                                  map[string]time.Duration
	deletions, reroutes, accepted, selects, scored, reused int
	flushes, cons                                          int
}

func (t *phaseTotals) add(res *engine.Result) {
	if res.Engine != engine.DefaultName {
		return
	}
	t.routes++
	var inPhases time.Duration
	for _, p := range res.Phases {
		inPhases += p.Duration
		t.phase[p.Name] += p.Duration
		t.selectDur += p.SelectDuration
		t.flushDur += p.TimingDuration
		t.deletions += p.Deletions
		t.reroutes += p.Reroutes
		t.accepted += p.Accepted
		t.selects += p.SelectCalls
		t.scored += p.ScoredNets
		t.reused += p.ReusedNets
		t.flushes += p.TimingFlushes
		t.cons += p.TimingCons
	}
	t.prephase += res.Duration - inPhases
}

// quality accumulates route quality over the distinct inputs of a run.
// Each measure is relative to a property of the input (a lower bound or
// the placed rows), so that it is steady across seeds whose circuits
// differ in size.
type quality struct {
	delay         float64 // Σ per-constraint delay / its lower bound
	cons          int
	area, wirelen float64 // Σ per-input area / row area, length / half-perimeter length
	viol, tracks  int
	inputs        int
}

// add records one reference route. The per-constraint delays come from
// the same timing analysis experiment.FinalDelay runs, replayed here
// because FinalDelay reports only the worst one. On a traced run it
// also replays the service payload's rendering calls.
func (q *quality) add(tr *tracer, j routeJob, out routed) error {
	root := tr.begin(noSpan, opReplay, "replay")
	defer tr.end(root)
	sp := tr.begin(root, opReplay, "dgraph.new")
	dg, err := dgraph.New(out.res.Ckt)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: delay graph: %w", j.key(), err)
	}
	tm := dg.NewTiming()
	tm.SetLumped(out.cr.NetLenUm)
	tm.Analyze()
	if len(tm.Cons) != len(j.in.lb) {
		return fmt.Errorf("%s: %d constraints routed, %d bounded", j.key(), len(tm.Cons), len(j.in.lb))
	}
	for p := range tm.Cons {
		if !(j.in.lb[p] > 0) {
			return fmt.Errorf("%s: constraint %d has lower bound %v", j.key(), p, j.in.lb[p])
		}
		q.delay += tm.Cons[p].Worst / j.in.lb[p]
		q.cons++
	}
	q.area += out.cr.AreaMm2 / j.in.rowsMm2
	q.wirelen += out.cr.TotalLenUm / j.in.hpwlUm
	q.viol += out.viol
	for _, ch := range out.cr.Channels {
		q.tracks += ch.Tracks
	}
	q.inputs++
	if tr != nil {
		sp = tr.begin(root, opReplay, "report.timing")
		_ = report.TimingReport(out.res.Ckt, tm, 3) + "\n" + report.SlackHistogram(out.res.Ckt, tm, 8)
		tr.end(sp)
		sp = tr.begin(root, opReplay, "render.svg")
		_ = render.SVG(out.res, out.cr)
		tr.end(sp)
		sp = tr.begin(root, opReplay, "render.layout")
		_ = render.Layout(out.res)
		tr.end(sp)
	}
	return nil
}

// finish derives the quality metrics and the per-layer metrics that do
// not depend on the workload's shape.
func (r *runner) finish() {
	q := r.quality
	if q.inputs == 0 || q.cons == 0 {
		r.runFailed(fmt.Errorf("no reference routes: quality metrics undefined"))
	} else {
		n := float64(q.inputs)
		r.metrics["delay_vs_lb"] = q.delay / float64(q.cons)
		r.metrics["area_vs_rows"] = q.area / n
		r.metrics["wirelen_vs_hpwl"] = q.wirelen / n
		r.metrics["experiment.violations"] = float64(q.viol) / n
		r.metrics["chanroute.tracks"] = float64(q.tracks) / n
	}
	if len(r.dbBytes) > 0 {
		sum := 0
		for _, b := range r.dbBytes {
			sum += b
		}
		r.metrics["routedb.bytes"] = float64(sum) / float64(len(r.dbBytes))
	}

	per := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	ms := func(d time.Duration, n int) float64 { return per(float64(d)/1e6, n) }
	m, c := r.measured, r.counted
	r.metrics["core.prephase_ms"] = ms(m.prephase, m.routes)
	r.metrics["core.initial_ms"] = ms(m.phase["initial"], m.routes)
	r.metrics["core.recover_ms"] = ms(m.phase["recover-violations"], m.routes)
	r.metrics["core.improve_delay_ms"] = ms(m.phase["improve-delay"], m.routes)
	r.metrics["core.improve_area_ms"] = ms(m.phase["improve-area"], m.routes)
	r.metrics["core.select_ms"] = ms(m.selectDur, m.routes)
	r.metrics["dgraph.flush_ms"] = ms(m.flushDur, m.routes)
	r.metrics["core.select_calls"] = per(float64(c.selects), c.routes)
	r.metrics["core.scored_nets"] = per(float64(c.scored), c.routes)
	r.metrics["core.reused_nets"] = per(float64(c.reused), c.routes)
	r.metrics["core.scored_per_deletion"] = per(float64(c.scored), c.deletions)
	r.metrics["core.reuse_ratio"] = per(float64(c.reused), c.scored+c.reused)
	r.metrics["core.deletions"] = per(float64(c.deletions), c.routes)
	r.metrics["core.reroutes"] = per(float64(c.reroutes), c.routes)
	r.metrics["core.reroute_accept_ratio"] = per(float64(c.accepted), c.reroutes)
	r.metrics["dgraph.flushes"] = per(float64(c.flushes), c.routes)
	r.metrics["dgraph.cons_per_flush"] = per(float64(c.cons), c.flushes)

	if r.tr == nil {
		return
	}
	spans := r.tr.recorded()
	if d := r.tr.dropped.Load(); d > 0 {
		r.runFailed(fmt.Errorf("trace buffer full: %d spans dropped", d))
	}
	self := selfTimes(spans)
	for _, name := range []string{
		"gen.generate", "circuit.parse", "circuit.validate",
		"core.route", "seqroute.route", "steiner.route",
		"chanroute.route", "experiment.final_delay", "dgraph.new",
		"routedb.build", "routedb.marshal", "render.svg", "render.layout", "report.timing",
	} {
		r.metrics[name+"_ms"] = self[name].meanMs()
	}
	// The outside span of each engine run and the engine's own clock
	// must agree, or the spans do not measure what they claim to.
	var spanSum, clockSum time.Duration
	for _, c := range r.checks {
		s := spans[c.span]
		spanSum += time.Duration(s.End - s.Start)
		clockSum += c.dur
	}
	if clockSum > 0 && math.Abs(float64(spanSum-clockSum)) > 0.05*float64(clockSum) {
		r.runFailed(fmt.Errorf("engine route spans sum to %v but Result.Duration to %v (more than 5%% apart)", spanSum, clockSum))
	}
}
