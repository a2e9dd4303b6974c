package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/report"
	"repro/internal/routedb"
)

const exampleCkt = "../../examples/data/invchain.ckt"

func readExample(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(exampleCkt)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// directRun routes the circuit the batch way and renders the same
// artifacts and summary the service serves, without going through the
// service code or internal/experiment.
func directRun(t *testing.T, cktText string) (dbJSON []byte, timing string, sum Summary) {
	t.Helper()
	ckt, err := circuit.Parse(strings.NewReader(cktText))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Route(ckt, core.Config{UseConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := chanroute.Route(res.Ckt, res.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	db, err := routedb.Build(res, cr)
	if err != nil {
		t.Fatal(err)
	}
	dbJSON, err = routedb.Marshal(db)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := dgraph.New(res.Ckt)
	if err != nil {
		t.Fatal(err)
	}
	tm := dg.NewTiming()
	tm.SetLumped(cr.NetLenUm)
	tm.Analyze()
	timing = report.TimingReport(res.Ckt, tm, 3) + "\n" + report.SlackHistogram(res.Ckt, tm, 8)
	delay, viol := tm.Worst()
	sum = Summary{
		DelayPs:      delay,
		Violations:   viol,
		AreaMm2:      cr.AreaMm2,
		WirelenMm:    cr.TotalLenUm / 1000,
		Tracks:       res.Dens.TotalTracks(),
		AddedPitches: res.AddedPitches,
		Nets:         len(res.Ckt.Nets),
		Constraints:  len(res.Ckt.Cons),
	}
	return dbJSON, timing, sum
}

func postJob(t *testing.T, base string, body any) submitResponse {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs: status %d: %s", resp.StatusCode, msg)
	}
	var out submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

func getBody(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, b)
	}
	return b
}

func pollDone(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		if code := getJSON(t, base+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return Status{}
}

// TestServiceEndToEnd is the acceptance flow: submit the example circuit
// over HTTP on an ephemeral port, poll to completion, fetch routedb JSON
// and the timing report, and require both to be byte-identical to a
// direct batch run. A second identical submission must be a cache hit
// (observed via /metrics) serving the same bytes.
func TestServiceEndToEnd(t *testing.T) {
	cktText := readExample(t)
	wantDB, wantTiming, wantSum := directRun(t, cktText)

	svc := New(Options{Workers: 2})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	sub := postJob(t, ts.URL, SubmitRequest{Circuit: cktText})
	if sub.Cached || sub.Dedup {
		t.Fatalf("first submission unexpectedly cached=%v dedup=%v", sub.Cached, sub.Dedup)
	}
	st := pollDone(t, ts.URL, sub.ID)
	if st.State != Done {
		t.Fatalf("job state = %s (error %q), want done", st.State, st.Error)
	}
	if st.Summary == nil || *st.Summary != wantSum {
		t.Fatalf("job summary %+v, want the direct run's %+v", st.Summary, wantSum)
	}
	if wantSum.DelayPs <= 0 || wantSum.AreaMm2 <= 0 || wantSum.WirelenMm <= 0 || wantSum.Nets == 0 {
		t.Fatalf("direct run summary incomplete: %+v", wantSum)
	}
	if len(st.Phases) == 0 {
		t.Fatalf("done job has no phase trace")
	}

	gotDB := getBody(t, ts.URL+"/jobs/"+sub.ID+"/routedb", http.StatusOK)
	if !bytes.Equal(gotDB, wantDB) {
		t.Fatalf("service routedb JSON differs from direct run (%d vs %d bytes)", len(gotDB), len(wantDB))
	}
	gotTiming := getBody(t, ts.URL+"/jobs/"+sub.ID+"/timing", http.StatusOK)
	if string(gotTiming) != wantTiming {
		t.Fatalf("service timing report differs from direct run")
	}
	if svg := getBody(t, ts.URL+"/jobs/"+sub.ID+"/svg", http.StatusOK); !bytes.Contains(svg, []byte("<svg")) {
		t.Fatalf("svg endpoint did not return SVG")
	}

	// Identical resubmission: served from the cache, byte-identical.
	sub2 := postJob(t, ts.URL, SubmitRequest{Circuit: cktText})
	if !sub2.Cached {
		t.Fatalf("second submission was not a cache hit: %+v", sub2)
	}
	if sub2.ID == sub.ID {
		t.Fatalf("cache hit reused the original job ID")
	}
	if st2 := pollDone(t, ts.URL, sub2.ID); st2.State != Done || !st2.Cached {
		t.Fatalf("cached job state = %+v, want done+cached", st2)
	}
	gotDB2 := getBody(t, ts.URL+"/jobs/"+sub2.ID+"/routedb", http.StatusOK)
	if !bytes.Equal(gotDB2, wantDB) {
		t.Fatalf("cached routedb JSON differs from direct run")
	}

	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("metrics cache_hits=%d cache_misses=%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if m.JobsCompleted != 1 || m.JobsAccepted != 1 {
		t.Fatalf("metrics jobs_completed=%d jobs_accepted=%d, want 1/1", m.JobsCompleted, m.JobsAccepted)
	}
	if m.JobLatency.Count != 1 {
		t.Fatalf("metrics job_latency count=%d, want 1", m.JobLatency.Count)
	}
	if len(m.PhaseLatency) == 0 {
		t.Fatalf("metrics phase_latency empty")
	}
}

// TestServiceCancelQueued holds the single worker busy, cancels a queued
// job over HTTP, and requires status cancelled both in the cancel reply
// and on subsequent polls; the held job still completes.
func TestServiceCancelQueued(t *testing.T) {
	cktText := readExample(t)
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}

	svc := New(Options{Workers: 1, beforeRun: func(*Job) { <-gate }})
	defer svc.Shutdown(context.Background())
	defer release() // must unblock the worker before Shutdown waits on it
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	subA := postJob(t, ts.URL, SubmitRequest{Circuit: cktText})
	// Different config → different hash, so B queues instead of deduping.
	subB := postJob(t, ts.URL, SubmitRequest{Circuit: cktText, Config: &JobConfig{UseConstraints: false}})
	if subB.Dedup || subB.Cached {
		t.Fatalf("job B unexpectedly coalesced: %+v", subB)
	}

	resp, err := http.Post(ts.URL+"/jobs/"+subB.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != Cancelled {
		t.Fatalf("cancel reply state = %s, want cancelled", st.State)
	}
	if got := pollDone(t, ts.URL, subB.ID); got.State != Cancelled {
		t.Fatalf("job B state = %s, want cancelled", got.State)
	}

	release()
	if got := pollDone(t, ts.URL, subA.ID); got.State != Done {
		t.Fatalf("job A state = %s (error %q), want done", got.State, got.Error)
	}
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.JobsCancelled != 1 {
		t.Fatalf("metrics jobs_cancelled=%d, want 1", m.JobsCancelled)
	}
}

// TestServiceCancelRunning interrupts a running job via core's context
// plumbing: the worker starts routing a job whose progress callback
// blocks the router long enough for the cancel to land.
func TestServiceCancelRunning(t *testing.T) {
	cktText := readExample(t)
	started := make(chan struct{})
	svc := New(Options{Workers: 1, beforeRun: func(*Job) { close(started) }})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// A tight timeout is the deterministic way to abort mid-route on a
	// fast circuit; a client cancel uses the identical path
	// (context cancellation observed between edge deletions).
	sub := postJob(t, ts.URL, SubmitRequest{Circuit: cktText, TimeoutMs: 1})
	<-started
	st := pollDone(t, ts.URL, sub.ID)
	if st.State != Failed && st.State != Done {
		t.Fatalf("job state = %s, want failed (deadline) or done (won the race)", st.State)
	}
	if st.State == Failed && !strings.Contains(st.Error, "deadline") {
		t.Fatalf("failed job error = %q, want deadline mention", st.Error)
	}
}

// TestServiceDedupInflight coalesces identical submissions onto one job.
func TestServiceDedupInflight(t *testing.T) {
	cktText := readExample(t)
	gate := make(chan struct{})
	svc := New(Options{Workers: 1, beforeRun: func(*Job) { <-gate }})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	subA := postJob(t, ts.URL, SubmitRequest{Circuit: cktText})
	subB := postJob(t, ts.URL, SubmitRequest{Circuit: cktText})
	if !subB.Dedup || subB.ID != subA.ID {
		t.Fatalf("identical in-flight submission not deduped: %+v vs %+v", subA, subB)
	}
	close(gate)
	if st := pollDone(t, ts.URL, subA.ID); st.State != Done {
		t.Fatalf("job state = %s, want done", st.State)
	}
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.JobsDeduped != 1 || m.JobsAccepted != 1 {
		t.Fatalf("metrics jobs_deduped=%d jobs_accepted=%d, want 1/1", m.JobsDeduped, m.JobsAccepted)
	}
}

// TestServiceQueueFull bounds the queue: worker busy + full queue → 429.
func TestServiceQueueFull(t *testing.T) {
	cktText := readExample(t)
	gate := make(chan struct{})
	svc := New(Options{Workers: 1, QueueDepth: 1, beforeRun: func(*Job) { <-gate }})
	defer svc.Shutdown(context.Background())
	defer close(gate) // must unblock the worker before Shutdown waits on it

	variant := func(i int) string {
		return strings.Replace(cktText, "circuit invchain", fmt.Sprintf("circuit invchain%d", i), 1)
	}
	if _, err := svc.Submit(SubmitRequest{Circuit: variant(0)}); err != nil {
		t.Fatal(err)
	}
	// The worker may or may not have claimed job 0 yet; fill until full.
	var lastErr error
	for i := 1; i < 4; i++ {
		if _, lastErr = svc.Submit(SubmitRequest{Circuit: variant(i)}); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", lastErr)
	}
}

// TestServiceBadRequests covers submit-side validation.
func TestServiceBadRequests(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"empty":              `{}`,
		"garbage-ckt":        `{"circuit":"not a circuit"}`,
		"bad-config":         `{"circuit":"circuit x\n","config":{"delay_model":"warp"}}`,
		"unknown-key":        `{"circuit":"circuit x\n","nope":1}`,
		"unknown-config-key": `{"circuit":"circuit x\n","config":{"bogus_field":1}}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if b := getBody(t, ts.URL+"/jobs/nope", http.StatusNotFound); !bytes.Contains(b, []byte("unknown job")) {
		t.Errorf("unknown job body: %s", b)
	}
}

// TestDeprecatedShardsAccepted keeps old clients working: a config that
// still carries the removed "shards" or "workers" fields, the fixed
// "alpha", "target_tracks" and "max_passes" at 0, or "greedy_channels"
// at false, is accepted and lands on the same cache slot (same hash, same
// bytes) as the submission without them.
func TestDeprecatedShardsAccepted(t *testing.T) {
	ckt := readExample(t)
	svc := New(Options{Workers: 1, Logf: silentLogf})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	base := postJob(t, ts.URL, map[string]any{"circuit": ckt})
	if st := pollDone(t, ts.URL, base.ID); st.State != Done {
		t.Fatalf("base job: state %s, error %q", st.State, st.Error)
	}
	wantDB := getBody(t, ts.URL+"/jobs/"+base.ID+"/routedb", 200)
	hashOf := func(id string) string {
		j, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %s not found", id)
		}
		return j.Hash
	}
	wantHash := hashOf(base.ID)

	for _, extra := range []string{`"shards":4`, `"workers":4`, `"shards":2,"workers":4`, `"alpha":0,"target_tracks":0`, `"greedy_channels":false`, `"max_passes":0`} {
		cfg := []byte(`{"use_constraints":true,` + extra + `}`)
		rep := postJob(t, ts.URL, map[string]any{"circuit": ckt, "config": json.RawMessage(cfg)})
		if !rep.Cached || hashOf(rep.ID) != wantHash {
			t.Fatalf("submit with %s missed the base cache slot: %+v", extra, rep)
		}
		if got := getBody(t, ts.URL+"/jobs/"+rep.ID+"/routedb", 200); !bytes.Equal(got, wantDB) {
			t.Fatalf("submit with %s served different routedb bytes", extra)
		}
	}
}

// TestServiceResultConflict: result endpoints answer 409 before the job
// is done.
func TestServiceResultConflict(t *testing.T) {
	cktText := readExample(t)
	gate := make(chan struct{})
	svc := New(Options{Workers: 1, beforeRun: func(*Job) { <-gate }})
	defer svc.Shutdown(context.Background())
	defer close(gate) // must unblock the worker before Shutdown waits on it
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	sub := postJob(t, ts.URL, SubmitRequest{Circuit: cktText})
	b := getBody(t, ts.URL+"/jobs/"+sub.ID+"/routedb", http.StatusConflict)
	if !bytes.Contains(b, []byte("not done")) {
		t.Fatalf("conflict body: %s", b)
	}
}

// TestServiceEvents streams snapshots to a terminal state over SSE.
func TestServiceEvents(t *testing.T) {
	cktText := readExample(t)
	svc := New(Options{Workers: 1})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	sub := postJob(t, ts.URL, SubmitRequest{Circuit: cktText})
	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	var last Status
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad event payload: %v", err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no SSE events received")
	}
	if last.State != Done {
		t.Fatalf("final event state = %s, want done", last.State)
	}
}

// TestServiceShutdownDrains: Shutdown finishes queued work, then new
// submissions are refused.
func TestServiceShutdownDrains(t *testing.T) {
	cktText := readExample(t)
	svc := New(Options{Workers: 1})
	resA, err := svc.Submit(SubmitRequest{Circuit: cktText})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := svc.Submit(SubmitRequest{Circuit: cktText, Config: &JobConfig{UseConstraints: false}})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{resA.Job, resB.Job} {
		if st := j.State(); st != Done {
			t.Fatalf("job %s state after drain = %s, want done", j.ID, st)
		}
	}
	if _, err := svc.Submit(SubmitRequest{Circuit: cktText}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: %v, want ErrShuttingDown", err)
	}
	// Idempotent.
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
