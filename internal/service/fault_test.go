package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// poisonCircuit renames the example circuit so a fault-injection hook
// can target it by name.
func poisonCircuit(t *testing.T) string {
	return strings.Replace(readExample(t), "circuit invchain", "circuit poison", 1)
}

// panicOnRun panics any job whose circuit name is "poison" at the
// worker's run boundary.
func panicOnRun(point, detail string) error {
	if point == faultinject.ServiceRun && detail == "poison" {
		panic("injected: poisoned run")
	}
	return nil
}

// TestPanicContainment is the acceptance flow for fault isolation: a
// submission whose routing run panics yields a Failed job carrying the
// panic message and a captured stack, /healthz stays live, the dedupe
// slot is released so the identical submission runs again instead of
// wedging, and healthy jobs keep producing byte-identical results.
func TestPanicContainment(t *testing.T) {
	healthy := readExample(t)
	poison := poisonCircuit(t)
	wantDB, _, _ := directRun(t, healthy)

	faultinject.Set(panicOnRun)
	t.Cleanup(faultinject.Clear)

	svc := New(Options{Workers: 2, Logf: func(string, ...any) {}})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// First poison submission: the worker recovers the panic and fails
	// the job instead of killing the process.
	sub := postJob(t, ts.URL, SubmitRequest{Circuit: poison})
	st := pollDone(t, ts.URL, sub.ID)
	if st.State != Failed {
		t.Fatalf("poisoned job state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "panic: injected: poisoned run") {
		t.Fatalf("poisoned job error = %q, want the panic message", st.Error)
	}
	if !strings.Contains(st.PanicStack, "goroutine") {
		t.Fatalf("poisoned job has no captured stack: %q", st.PanicStack)
	}

	// The server is still live.
	if b := getBody(t, ts.URL+"/healthz", http.StatusOK); !bytes.Contains(b, []byte("ok")) {
		t.Fatalf("healthz after panic: %s", b)
	}

	// The dedupe slot was released: an identical resubmission starts a
	// fresh job (it must not coalesce onto the dead one) and fails the
	// same way.
	sub2 := postJob(t, ts.URL, SubmitRequest{Circuit: poison})
	if sub2.Dedup || sub2.Cached || sub2.ID == sub.ID {
		t.Fatalf("resubmitted poison wedged on the dead job: %+v", sub2)
	}
	if st2 := pollDone(t, ts.URL, sub2.ID); st2.State != Failed {
		t.Fatalf("resubmitted poison state = %s, want failed", st2.State)
	}

	// Healthy jobs still route, byte-identically to a direct run.
	hs := postJob(t, ts.URL, SubmitRequest{Circuit: healthy})
	if got := pollDone(t, ts.URL, hs.ID); got.State != Done {
		t.Fatalf("healthy job after panics: %s (%s)", got.State, got.Error)
	}
	gotDB := getBody(t, ts.URL+"/jobs/"+hs.ID+"/routedb", http.StatusOK)
	if !bytes.Equal(gotDB, wantDB) {
		t.Fatalf("healthy routedb differs after panic containment")
	}

	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.PanicsRecov != 2 {
		t.Fatalf("panics_recovered = %d, want 2", m.PanicsRecov)
	}
	if m.JobsFailed != 2 || m.JobsCompleted != 1 {
		t.Fatalf("jobs_failed=%d jobs_completed=%d, want 2/1", m.JobsFailed, m.JobsCompleted)
	}
}

// TestPanicInsideCorePhase injects the panic deep inside the router (at
// a phase boundary under core.RouteCtx) rather than in the worker
// prologue, proving containment holds across the whole call stack —
// the d_M-went-negative class of invariant panic takes this path.
func TestPanicInsideCorePhase(t *testing.T) {
	faultinject.Set(func(point, detail string) error {
		if point == faultinject.CorePhase && detail == "improve-area" {
			panic("injected: d_M went negative")
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)

	svc := New(Options{Workers: 1, Logf: func(string, ...any) {}})
	defer svc.Shutdown(context.Background())

	res, err := svc.Submit(SubmitRequest{Circuit: readExample(t)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Wait(context.Background(), res.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Failed || !strings.Contains(st.Error, "panic: injected: d_M went negative") {
		t.Fatalf("state=%s error=%q, want failed with the injected panic", st.State, st.Error)
	}
	if !strings.Contains(st.PanicStack, "runPhase") {
		t.Fatalf("stack does not show the core phase frame:\n%s", st.PanicStack)
	}
	if m := svc.Metrics(); m.PanicsRecov != 1 {
		t.Fatalf("panics_recovered = %d, want 1", m.PanicsRecov)
	}
}

// TestFaultInjectedError: an injected error (not a panic) at a phase
// boundary fails the job with that error, with no panic accounting.
func TestFaultInjectedError(t *testing.T) {
	faultinject.Set(func(point, detail string) error {
		if point == faultinject.CorePhase && detail == "recover-violations" {
			return errors.New("injected transient failure")
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)

	svc := New(Options{Workers: 1, Logf: func(string, ...any) {}})
	defer svc.Shutdown(context.Background())

	res, err := svc.Submit(SubmitRequest{Circuit: readExample(t)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Wait(context.Background(), res.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Failed || !strings.Contains(st.Error, "injected transient failure") {
		t.Fatalf("state=%s error=%q, want failed with the injected error", st.State, st.Error)
	}
	if st.PanicStack != "" {
		t.Fatalf("plain error carried a panic stack")
	}
	if m := svc.Metrics(); m.PanicsRecov != 0 {
		t.Fatalf("panics_recovered = %d, want 0", m.PanicsRecov)
	}
}

// TestFaultInjectedDelay: an injected delay at the payload boundary
// keeps the job within its deadline semantics (a long enough delay
// fails it with the deadline error, proving timeouts still bite around
// injected slowness).
func TestFaultInjectedDelay(t *testing.T) {
	faultinject.Set(func(point, detail string) error {
		if point == faultinject.ServicePayload {
			time.Sleep(200 * time.Millisecond)
		}
		return nil
	})
	t.Cleanup(faultinject.Clear)

	svc := New(Options{Workers: 1, Logf: func(string, ...any) {}})
	defer svc.Shutdown(context.Background())

	res, err := svc.Submit(SubmitRequest{Circuit: readExample(t), TimeoutMs: 10000})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Wait(context.Background(), res.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The delay lands after RouteCtx, so the job still completes; the
	// point of this case is that a slow hook cannot corrupt state.
	if st.State != Done {
		t.Fatalf("delayed job state = %s (%s), want done", st.State, st.Error)
	}
}

// TestStressMixedSubmissions is the 10k-submission bounded-memory run:
// 8 goroutines hammer one server with a mix of healthy (mostly
// cache-hit), poison (panicking) and invalid submissions. The server
// must stay live, keep len(Server.jobs) bounded by the retention limit,
// and keep healthy results byte-identical — including across a second
// server with different worker counts.
func TestStressMixedSubmissions(t *testing.T) {
	base := readExample(t)
	variant := func(i int) string {
		return strings.Replace(base, "circuit invchain", fmt.Sprintf("circuit invchain%d", i), 1)
	}
	poison := poisonCircuit(t)
	faultinject.Set(panicOnRun)
	t.Cleanup(faultinject.Clear)

	const (
		distinct  = 3
		retainMax = 64
		total     = 10000
		gophers   = 8
	)
	mk := func(workers int) *Server {
		return New(Options{
			Workers: workers, QueueDepth: 256, CacheSize: 8,
			MaxTerminalJobs: retainMax, TerminalTTL: time.Hour,
			Logf: func(string, ...any) {},
		})
	}
	svc := mk(4)
	defer svc.Shutdown(context.Background())

	// Pre-route each distinct circuit so the flood below is mostly
	// cache hits (terminal-at-birth jobs, the retention hot path), and
	// keep the reference bytes.
	wantDB := make([][]byte, distinct)
	for i := 0; i < distinct; i++ {
		res, err := svc.Submit(SubmitRequest{Circuit: variant(i)})
		if err != nil {
			t.Fatal(err)
		}
		st, err := svc.Wait(context.Background(), res.Job.ID)
		if err != nil || st.State != Done {
			t.Fatalf("pre-route %d: err=%v state=%s (%s)", i, err, st.State, st.Error)
		}
		wantDB[i] = res.Job.Payload().RouteDB
	}

	submitRetry := func(req SubmitRequest) (SubmitResult, error) {
		for {
			res, err := svc.Submit(req)
			if errors.Is(err, ErrQueueFull) {
				time.Sleep(time.Millisecond)
				continue
			}
			return res, err
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, gophers)
	for g := 0; g < gophers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < total/gophers; i++ {
				switch n := (g*total/gophers + i) % 10; {
				case n == 7: // poison: panics, must fail cleanly
					res, err := submitRetry(SubmitRequest{Circuit: poison})
					if err != nil {
						errs <- fmt.Errorf("poison submit: %w", err)
						return
					}
					select {
					case <-res.Job.Done():
					case <-time.After(30 * time.Second):
						errs <- fmt.Errorf("poison job %s stuck", res.Job.ID)
						return
					}
					if st := res.Job.State(); st != Failed {
						errs <- fmt.Errorf("poison job %s state %s, want failed", res.Job.ID, st)
						return
					}
				case n == 3: // invalid: must be rejected, not enqueued
					if _, err := svc.Submit(SubmitRequest{Circuit: "not a circuit"}); err == nil {
						errs <- fmt.Errorf("invalid circuit accepted")
						return
					}
				default: // healthy: cache hit, terminal at birth
					res, err := submitRetry(SubmitRequest{Circuit: variant(n % distinct)})
					if err != nil {
						errs <- fmt.Errorf("healthy submit: %w", err)
						return
					}
					select {
					case <-res.Job.Done():
					case <-time.After(30 * time.Second):
						errs <- fmt.Errorf("healthy job %s stuck", res.Job.ID)
						return
					}
					if st := res.Job.State(); st != Done {
						errs <- fmt.Errorf("healthy job %s state %s, want done", res.Job.ID, st)
						return
					}
					if !bytes.Equal(res.Job.Payload().RouteDB, wantDB[n%distinct]) {
						errs <- fmt.Errorf("healthy job %s routedb drifted", res.Job.ID)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Bounded memory: with every job terminal, the job map is capped by
	// the retention limit (not by the 10k submissions that flowed by).
	svc.mu.Lock()
	live := len(svc.jobs)
	svc.mu.Unlock()
	if live > retainMax {
		t.Errorf("len(Server.jobs) = %d after %d submissions, want <= %d", live, total, retainMax)
	}
	m := svc.Metrics()
	if m.JobsRetained > retainMax {
		t.Errorf("jobs_retained = %d, want <= %d", m.JobsRetained, retainMax)
	}
	if m.JobsEvicted == 0 {
		t.Errorf("jobs_evicted = 0 after a 10k flood")
	}
	if m.PanicsRecov == 0 {
		t.Errorf("panics_recovered = 0, poison jobs did not exercise containment")
	}

	// Determinism across worker counts: a second server with a different
	// number of concurrent jobs must produce the same bytes.
	svc2 := mk(1)
	defer svc2.Shutdown(context.Background())
	for i := 0; i < distinct; i++ {
		res, err := svc2.Submit(SubmitRequest{Circuit: variant(i)})
		if err != nil {
			t.Fatal(err)
		}
		st, err := svc2.Wait(context.Background(), res.Job.ID)
		if err != nil || st.State != Done {
			t.Fatalf("svc2 route %d: err=%v state=%s", i, err, st.State)
		}
		if !bytes.Equal(res.Job.Payload().RouteDB, wantDB[i]) {
			t.Errorf("circuit %d: routedb differs between worker counts", i)
		}
	}
}
