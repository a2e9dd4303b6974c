package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiment"
	"repro/internal/report"
)

// runClosed runs a closed-loop workload: one client that starts each
// operation when the previous one is done. Operation i routes every job
// of passes[i mod len(passes)]; its latency is the wall time of those
// routes. The loop runs for the run's seconds and at least sc.minOps
// operations. Every operation's routing databases must hash like the
// first run of the same job; after the loop every distinct job is routed
// once more with one scoring worker as the reference, audited, and
// compared byte for byte.
func (r *runner) runClosed(build func(tr *tracer) ([][]routeJob, error)) ([][]routeJob, error) {
	var passes [][]routeJob
	err := r.timedSetups(func(tr *tracer, last bool) error {
		p, err := build(tr)
		if last {
			passes = p
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	shas := map[string][32]byte{}
	check := func(tr *tracer, op int, pass []routeJob, outs []routed) error {
		root := tr.begin(noSpan, op, "check")
		defer tr.end(root)
		for i, j := range pass {
			sum, _, err := fingerprint(tr, root, op, outs[i])
			if err != nil {
				return fmt.Errorf("%s: routedb: %w", j.key(), err)
			}
			if first, ok := shas[j.key()]; !ok {
				shas[j.key()] = sum
			} else if sum != first {
				return fmt.Errorf("%s: routedb differs from the job's first run", j.key())
			}
			if err := checkLowerBound(j, outs[i].delay); err != nil {
				return err
			}
		}
		return nil
	}
	runPass := func(tr *tracer, op int, pass []routeJob, outs []routed) error {
		root := tr.begin(noSpan, op, "op")
		defer tr.end(root)
		for i, j := range pass {
			out, err := j.run(tr, root, op, j.workers)
			if err != nil {
				return err
			}
			outs[i] = out
		}
		return nil
	}

	// One untimed warm-up operation.
	warm := make([]routed, len(passes[0]))
	r.attempted++
	if err := runPass(nil, -1, passes[0], warm); err != nil {
		r.opFailed(err)
	} else if err := check(nil, -1, passes[0], warm); err != nil {
		r.opFailed(err)
	}

	var lat, traced, plain []float64
	var nets int
	var busy time.Duration
	var use usage
	mem := newMemSampler()
	start := time.Now()
	for op := 0; op < r.sc.minOps || time.Since(start) < r.seconds; op++ {
		if time.Since(start) > r.sc.maxLoop {
			r.runFailed(fmt.Errorf("gave up after %v with %d of %d operations", r.sc.maxLoop, op, r.sc.minOps))
			break
		}
		pass := passes[op%len(passes)]
		tr := r.opTracer(op, len(passes))
		outs := make([]routed, len(pass))
		r.attempted++
		m0 := mem.read()
		t0 := time.Now()
		err := runPass(tr, op, pass, outs)
		d := time.Since(t0)
		m1 := mem.read()
		if err == nil {
			err = check(tr, op, pass, outs)
		}
		if err != nil {
			r.opFailed(err)
			continue
		}
		ms := float64(d) / 1e6
		lat = append(lat, ms)
		if tr != nil {
			traced = append(traced, ms)
			for _, o := range outs {
				r.measured.add(o.res)
				if o.span != noSpan {
					r.checks = append(r.checks, spanRun{o.span, o.res.Duration})
				}
			}
		} else {
			plain = append(plain, ms)
		}
		busy += d
		for _, j := range pass {
			nets += len(j.in.ckt.Nets)
		}
		use.add(m1.since(m0))
	}
	r.setUsage(use)
	r.setLatency(lat)
	r.setOverhead(traced, plain)
	r.metrics["nets_per_s"] = float64(nets) / busy.Seconds()

	r.references(passes, shas)
	return passes, nil
}

// references routes every distinct job once more with one scoring
// worker, audits it, requires its bytes to equal the timed runs', and
// takes the run's quality metrics and phase counters from it. A failed
// reference fails the run: every timed run of its job is suspect.
func (r *runner) references(passes [][]routeJob, shas map[string][32]byte) {
	for _, pass := range passes {
		for _, j := range pass {
			if err := r.reference(j, shas); err != nil {
				r.runFailed(err)
			}
		}
	}
}

func (r *runner) reference(j routeJob, shas map[string][32]byte) error {
	out, err := j.run(nil, noSpan, opReplay, 1)
	if err != nil {
		return err
	}
	r.refDelay[j.key()] = out.delay
	if err := audit(j, out); err != nil {
		return err
	}
	if err := checkLowerBound(j, out.delay); err != nil {
		return err
	}
	sum, size, err := fingerprint(nil, noSpan, opReplay, out)
	if err != nil {
		return fmt.Errorf("%s: reference routedb: %w", j.key(), err)
	}
	if want, ok := shas[j.key()]; ok && sum != want {
		return fmt.Errorf("%s: the one-worker reference routed different bytes", j.key())
	}
	r.dbBytes = append(r.dbBytes, size)
	r.counted.add(out.res)
	return r.quality.add(r.tr, j, out)
}

// checkGolden compares Tables 1 and 3 of the paper workload's first
// instance set, at seed 1 the paper's own data sets, with the
// repository's golden file.
func (r *runner) checkGolden(pass []routeJob) error {
	var rows []*experiment.Row
	for i := 0; i+1 < len(pass); i += 2 {
		con, unc := pass[i], pass[i+1]
		ckt := con.in.ckt
		cells := 0
		for c := range ckt.Cells {
			if !ckt.IsFeedCell(c) {
				cells++
			}
		}
		rows = append(rows, &experiment.Row{
			Name: ckt.Name, Cells: cells, Nets: len(ckt.Nets), Cons: len(ckt.Cons),
			LowerBoundPs: con.in.lbWorst,
			Con:          experiment.Run{DelayPs: r.refDelay[con.key()]},
			Unc:          experiment.Run{DelayPs: r.refDelay[unc.key()]},
		})
	}
	got := report.Table1(rows) + "\n" + report.Table3(rows)
	path := filepath.Join(r.root, "testdata", "golden_tables.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden tables: %w", err)
	}
	if !bytes.Equal([]byte(got), want) {
		return fmt.Errorf("Tables 1 and 3 at seed 1 differ from %s:\n%s", path, got)
	}
	return nil
}

// runPaper is the paper workload.
func (r *runner) runPaper() error {
	passes, err := r.runClosed(func(tr *tracer) ([][]routeJob, error) {
		return paperPasses(tr, r.seed, r.sc.paperPool)
	})
	if err != nil {
		return err
	}
	if r.seed == 1 {
		if err := r.checkGolden(passes[0]); err != nil {
			r.runFailed(err)
		}
	}
	return nil
}

// runPerNet is the per-net workload.
func (r *runner) runPerNet() error {
	_, err := r.runClosed(func(tr *tracer) ([][]routeJob, error) {
		return perNetPasses(tr, r.seed, r.sc.perNetPool)
	})
	return err
}

// runLarge is the large workload.
func (r *runner) runLarge() error {
	_, err := r.runClosed(func(tr *tracer) ([][]routeJob, error) {
		return largePasses(tr, r.seed, r.sc)
	})
	return err
}
