package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/routedb"
	"repro/internal/service"
)

// clients bounds the service workload's concurrent HTTP connections.
const clients = 2

// maxLateMs is the generator lateness beyond which a service run is
// invalid: its arrivals no longer follow the schedule. It applies to the
// 99th percentile, not the maximum: a single arrival held up while both
// processors run routing work, which the scheduler preempts only every
// 10 ms, does not make the schedule wrong.
const maxLateMs = 50

// freshCircuit is one circuit of the service schedule.
type freshCircuit struct {
	name string
	text string
	body []byte // the POST /jobs request
	nets int
}

// serviceRun is the service workload after set-up: the schedule, the
// request bodies, and an in-process server behind a loopback listener.
type serviceRun struct {
	arrivals []arrival
	fresh    []freshCircuit
	warm     []byte // request body of the untimed warm-up job
	srv      *service.Server
	hs       *http.Server
	served   chan error
	client   *http.Client
	base     string
}

// startService builds the schedule and its circuits and starts a server
// with one routing worker and one scoring worker per job, the default
// cache and queue, 64 retained finished jobs, and no journal.
func startService(tr *tracer, seed int64, n int, rate float64) (*serviceRun, error) {
	root := tr.begin(noSpan, opSetup, "setup")
	defer tr.end(root)
	arrivals, params, err := serviceSchedule(seed, n, rate)
	if err != nil {
		return nil, err
	}
	s := &serviceRun{arrivals: arrivals}
	for _, p := range params {
		text, ckt, err := generate(tr, root, p)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(service.SubmitRequest{Circuit: text})
		if err != nil {
			return nil, err
		}
		s.fresh = append(s.fresh, freshCircuit{name: p.Name, text: text, body: body, nets: len(ckt.Nets)})
	}
	p, err := gen.Dataset("C1P1")
	if err != nil {
		return nil, err
	}
	text, _, err := generate(tr, root, p)
	if err != nil {
		return nil, err
	}
	if s.warm, err = json.Marshal(service.SubmitRequest{Circuit: text}); err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// One routing worker leaves the second processor to the HTTP front
	// end, the client and the collector: with two, routes take both and the
	// tail swings with every slow spell of the machine (a p90 spread of
	// 28% over eight seeds against 13% with one, at the same medians).
	// Finished jobs are fetched at once, so 64 retained ones suffice; the
	// default 1024 would keep every payload of a run alive.
	s.srv = service.New(service.Options{Workers: 1, ScoreWorkers: 1, MaxTerminalJobs: 64})
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}
	s.base = "http://" + ln.Addr().String()
	return s, nil
}

// close stops the listener, then drains and stops the server.
func (s *serviceRun) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// jobRec is what one submission did.
type jobRec struct {
	sched, done         time.Time
	submit, wait, fetch time.Duration
	cached, deduped     bool
	refused             bool
	err                 error
	sha                 [32]byte
	status              service.Status
	id                  string
	db                  []byte // fresh routing database awaiting checkDB
}

// do submits one circuit over HTTP, waits for the job in process, and
// fetches its routing database over HTTP. It keeps the bytes of a fresh
// routing database (neither cached nor deduplicated) for checkDB.
func (s *serviceRun) do(tr *tracer, op int, body []byte, rec *jobRec) {
	root := tr.begin(noSpan, op, "job")
	defer tr.end(root)

	sp := tr.begin(root, op, "service.submit")
	t0 := time.Now()
	var sub struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
		Dedup  bool   `json:"dedup"`
	}
	code, err := s.request(http.MethodPost, "/jobs", body, &sub)
	t1 := time.Now()
	tr.end(sp)
	rec.submit = t1.Sub(t0)
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return
	}
	if code != http.StatusAccepted {
		rec.refused = true
		rec.err = fmt.Errorf("submit refused with HTTP %d", code)
		return
	}
	rec.cached, rec.deduped = sub.Cached, sub.Dedup

	sp = tr.begin(root, op, "service.wait")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	rec.status, err = s.srv.Wait(ctx, sub.ID)
	cancel()
	t2 := time.Now()
	tr.end(sp)
	rec.wait = t2.Sub(t1)
	if err != nil {
		rec.err = fmt.Errorf("wait %s: %w", sub.ID, err)
		return
	}
	if rec.status.State != service.Done {
		rec.err = fmt.Errorf("job %s ended %s: %s", sub.ID, rec.status.State, rec.status.Error)
		return
	}

	sp = tr.begin(root, op, "service.fetch")
	var db bytes.Buffer
	code, err = s.request(http.MethodGet, "/jobs/"+sub.ID+"/routedb", nil, &db)
	rec.done = time.Now()
	tr.end(sp)
	rec.fetch = rec.done.Sub(t2)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", code)
	}
	if err != nil {
		rec.err = fmt.Errorf("fetch routedb of %s: %w", sub.ID, err)
		return
	}
	rec.sha = sha256.Sum256(db.Bytes())
	if !rec.cached && !rec.deduped {
		rec.id, rec.db = sub.ID, db.Bytes()
	}
}

// checkDB requires a fresh job's routing database to parse and validate,
// then drops the bytes.
func checkDB(rec *jobRec) {
	parsed, err := routedb.Read(bytes.NewReader(rec.db))
	if err == nil {
		err = parsed.Validate()
	}
	if err != nil {
		rec.err = fmt.Errorf("routedb of %s: %w", rec.id, err)
	}
	rec.db = nil
}

// request makes one HTTP call. A *bytes.Buffer out receives the raw
// body; any other non-nil out is decoded from JSON when the call
// succeeds.
func (s *serviceRun) request(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if buf, ok := out.(*bytes.Buffer); ok {
		_, err = io.Copy(buf, resp.Body)
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// runService is the service workload: an open loop of seeded Poisson
// arrivals, each timed from its scheduled arrival to its fetched
// routing database.
func (r *runner) runService() error {
	n := max(r.sc.minOps, int(math.Round(r.sc.serviceRate*r.seconds.Seconds())))
	var s *serviceRun
	err := r.timedSetups(func(tr *tracer, last bool) error {
		got, err := startService(tr, r.seed, n, r.sc.serviceRate)
		if err != nil {
			return err
		}
		if last {
			s = got
			return nil
		}
		return got.close()
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := s.close(); err != nil {
			r.runFailed(fmt.Errorf("service shutdown: %w", err))
		}
	}()

	var warm jobRec
	r.attempted++
	s.do(nil, -1, s.warm, &warm)
	if warm.db != nil {
		checkDB(&warm)
	}
	if warm.err != nil {
		r.opFailed(fmt.Errorf("warm-up: %w", warm.err))
	}

	recs := make([]jobRec, len(s.arrivals))
	late := make([]float64, len(s.arrivals))
	maxLive := make([]uint64, clients)
	queue := make(chan int, len(s.arrivals))
	// A client hands each fresh routedb to one checker goroutine rather
	// than parse it itself, so that the check does not hold up the next
	// arrival it would send.
	toCheck := make(chan int, len(s.arrivals))
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for i := range toCheck {
			checkDB(&recs[i])
		}
	}()
	var wg sync.WaitGroup
	mem := newMemSampler()
	m0 := mem.read()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cm := newMemSampler()
			for i := range queue {
				var tr *tracer
				if i%2 == 1 {
					tr = r.tr
				}
				s.do(tr, i, s.fresh[s.arrivals[i].circ].body, &recs[i])
				if recs[i].db != nil {
					toCheck <- i
				}
				maxLive[c] = max(maxLive[c], cm.read().liveBytes)
			}
		}(c)
	}
	start := time.Now()
	for i, a := range s.arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = float64(time.Since(due)) / 1e6
		recs[i].sched = due
		queue <- i
	}
	close(queue)
	wg.Wait()
	close(toCheck)
	<-checked
	// Jobs overlap, so the counters cover the whole window, including the
	// checks of each fetched routedb.
	use := usage{ops: len(recs), sum: mem.read().since(m0), maxLive: slices.Max(maxLive)}
	r.setUsage(use)

	var lat, traced, plain, submit, waitHit, waitMiss, route, fetch []float64
	var nets, hits, dedupes, refused int
	var busy float64 // Σ job latency, ms
	firstSHA := map[int][32]byte{}
	missOf := map[int]*jobRec{}
	for i := range recs {
		rec, a := &recs[i], s.arrivals[i]
		r.attempted++
		if rec.refused {
			refused++
		}
		if rec.err != nil {
			r.opFailed(fmt.Errorf("job %d (%s): %w", i, s.fresh[a.circ].name, rec.err))
			continue
		}
		if sum, ok := firstSHA[a.circ]; !ok {
			firstSHA[a.circ] = rec.sha
		} else if rec.sha != sum {
			r.opFailed(fmt.Errorf("job %d (%s): routedb differs from the circuit's first job", i, s.fresh[a.circ].name))
			continue
		}
		ms := float64(rec.done.Sub(rec.sched)) / 1e6
		lat = append(lat, ms)
		submit = append(submit, float64(rec.submit)/1e6)
		fetch = append(fetch, float64(rec.fetch)/1e6)
		switch {
		case rec.cached:
			hits++
			waitHit = append(waitHit, float64(rec.wait)/1e6)
		case rec.deduped:
			dedupes++
		default:
			// Tracing overhead compares misses only: a hit is two orders
			// of magnitude faster, and the hit share of each half varies.
			if i%2 == 1 {
				traced = append(traced, ms)
			} else {
				plain = append(plain, ms)
			}
			waitMiss = append(waitMiss, float64(rec.wait)/1e6)
			total := 0.0
			for _, p := range rec.status.Phases {
				total += p.DurationMs
			}
			route = append(route, total)
			if missOf[a.circ] == nil {
				missOf[a.circ] = rec
			}
		}
		nets += s.fresh[a.circ].nets
		busy += ms
	}
	r.setLatency(lat)
	r.setOverhead(traced, plain)
	// Per second of job latency, as the closed loops count it: the
	// arrival rate alone would set nets per second of the window.
	r.metrics["nets_per_s"] = float64(nets) / (busy / 1000)
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return percentile(xs, 50)
	}
	r.metrics["service.submit_ms.p50"] = p50(submit)
	r.metrics["service.wait_ms.hit.p50"] = p50(waitHit)
	r.metrics["service.wait_ms.miss.p50"] = p50(waitMiss)
	r.metrics["service.route_ms.p50"] = p50(route)
	r.metrics["service.fetch_ms.p50"] = p50(fetch)
	r.metrics["service.hit_ratio"] = float64(hits) / float64(len(recs))
	r.metrics["service.dedupe_ratio"] = float64(dedupes) / float64(len(recs))
	r.metrics["service.refused"] = float64(refused)
	lateP99 := percentile(late, 99)
	r.metrics["loadgen.late_ms.p99"] = lateP99
	r.metrics["loadgen.late_ms.max"] = percentile(late, 100)
	if lateP99 > maxLateMs {
		r.runFailed(fmt.Errorf("1%% of arrivals were sent over %.1f ms late (limit %d ms): the run is invalid", lateP99, maxLateMs))
	}

	for k := 0; k < len(s.fresh); k += r.sc.serviceSample {
		if rec := missOf[k]; rec != nil {
			if err := r.serviceReference(s.fresh[k], rec, firstSHA[k]); err != nil {
				r.opFailed(err)
			}
		}
	}
	return nil
}

// serviceReference routes one served circuit locally, as the service
// does with one scoring worker, and requires the same routing database
// bytes and summary delay. It is also the run's reference for quality
// and, on a traced run, for the per-layer times of the layers the
// service runs out of the client's sight.
func (r *runner) serviceReference(fc freshCircuit, miss *jobRec, served [32]byte) error {
	tr := r.tr
	root := tr.begin(noSpan, opReplay, "replay")
	defer tr.end(root)
	in, err := newInput(tr, root, opReplay, fc.name, fc.text)
	if err != nil {
		return err
	}
	j := routeJob{in: in, engine: "concurrent", constrained: true, workers: 1}
	out, err := j.run(tr, root, opReplay, 1)
	if err != nil {
		return err
	}
	if err := audit(j, out); err != nil {
		return err
	}
	if err := checkLowerBound(j, out.delay); err != nil {
		return err
	}
	sum, size, err := fingerprint(tr, root, opReplay, out)
	if err != nil {
		return fmt.Errorf("%s: reference routedb: %w", j.key(), err)
	}
	if sum != served {
		return fmt.Errorf("%s: the service's routedb differs from a local route", j.key())
	}
	if got := miss.status.Summary; got == nil || got.DelayPs != out.delay || got.Violations != out.viol {
		return fmt.Errorf("%s: the service's summary disagrees with the local delay %.3f ps", j.key(), out.delay)
	}
	r.dbBytes = append(r.dbBytes, size)
	r.counted.add(out.res)
	r.measured.add(out.res)
	if out.span != noSpan {
		r.checks = append(r.checks, spanRun{out.span, out.res.Duration})
	}
	return r.quality.add(tr, j, out)
}
