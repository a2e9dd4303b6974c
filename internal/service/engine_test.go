package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	// The service itself only guarantees the default (concurrent) engine;
	// these tests exercise selection across the full registry.
	_ "repro/internal/seqroute"
	_ "repro/internal/steiner"
)

// TestEngineSelectionHTTP submits the same circuit to each registered
// engine over HTTP and checks the job status reports the engine, the
// per-engine metrics count it, and distinct engines get distinct cache
// slots (same circuit, different engine must not be a cache hit).
func TestEngineSelectionHTTP(t *testing.T) {
	ckt := readExample(t)
	svc := New(Options{Workers: 1, Logf: silentLogf})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, eng := range []string{"", "sequential", "steiner"} {
		body := map[string]any{"circuit": ckt}
		if eng != "" {
			body["config"] = map[string]any{"engine": eng}
		}
		rep := postJob(t, ts.URL, body)
		if rep.Cached {
			t.Fatalf("engine %q: fresh engine/circuit pair served from cache", eng)
		}
		st := pollDone(t, ts.URL, rep.ID)
		if st.State != Done {
			t.Fatalf("engine %q: state %s, error %q", eng, st.State, st.Error)
		}
		want := eng
		if want == "" {
			want = "concurrent"
		}
		if st.Engine != want {
			t.Fatalf("status engine = %q, want %q", st.Engine, want)
		}
	}

	m := svc.Metrics()
	for _, eng := range []string{"concurrent", "sequential", "steiner"} {
		if m.JobsByEngine[eng] != 1 {
			t.Fatalf("jobs_by_engine[%s] = %d, want 1 (%v)", eng, m.JobsByEngine[eng], m.JobsByEngine)
		}
	}
}

// TestEngineUnknownHTTP is the satellite contract: an unknown engine is
// rejected with 400, the message lists the registered engines, and the
// rejected_bad_engine counter moves.
func TestEngineUnknownHTTP(t *testing.T) {
	ckt := readExample(t)
	svc := New(Options{Workers: 1, Logf: silentLogf})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	b, _ := json.Marshal(map[string]any{
		"circuit": ckt,
		"config":  map[string]any{"engine": "bogus"},
	})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown engine: status %d, want 400: %s", resp.StatusCode, msg)
	}
	for _, eng := range []string{"bogus", "concurrent", "sequential", "steiner"} {
		if !strings.Contains(string(msg), eng) {
			t.Fatalf("rejection message %q does not mention %q", msg, eng)
		}
	}
	if m := svc.Metrics(); m.RejectedBadEngine != 1 {
		t.Fatalf("rejected_bad_engine = %d, want 1", m.RejectedBadEngine)
	}
}

// TestEngineJournalReplay restarts a journaled service and requires the
// replayed job to still report its engine.
func TestEngineJournalReplay(t *testing.T) {
	ckt := readExample(t)
	path := filepath.Join(t.TempDir(), "jobs.journal")

	svc1, err := Open(Options{Workers: 1, JournalPath: path, Logf: silentLogf})
	if err != nil {
		t.Fatal(err)
	}
	jc := DefaultJobConfig()
	jc.Engine = "sequential"
	res, err := svc1.Submit(SubmitRequest{Circuit: ckt, Config: &jc})
	if err != nil {
		t.Fatal(err)
	}
	<-res.Job.Done()
	if st := res.Job.Snapshot(); st.State != Done || st.Engine != "sequential" {
		t.Fatalf("pre-restart job: %+v", st)
	}
	if err := svc1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2 := openJournaled(t, path)
	j2, ok := svc2.Job(res.Job.ID)
	if !ok {
		t.Fatalf("job %s not recovered after restart", res.Job.ID)
	}
	if st := j2.Snapshot(); st.State != Done || st.Engine != "sequential" {
		t.Fatalf("recovered job lost its engine: %+v", st)
	}
}
