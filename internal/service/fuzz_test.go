package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
)

// fuzzHandler is one tightly-capped server shared by every fuzz
// iteration in the process: tiny circuit limits keep accepted jobs
// cheap, the retention policy keeps memory bounded across millions of
// iterations, and panic containment turns any routing crash into a
// failed job instead of a fuzz-harness crash.
var fuzzHandler = sync.OnceValue(func() http.Handler {
	svc := New(Options{
		Workers:         1,
		QueueDepth:      64,
		CacheSize:       4,
		JobTimeout:      2 * time.Second,
		TerminalTTL:     time.Minute,
		MaxTerminalJobs: 32,
		MaxBodyBytes:    16 << 10,
		MaxCircuitBytes: 8 << 10,
		MaxNets:         16,
		MaxCells:        64,
		Logf:            func(string, ...any) {},
	})
	return svc.Handler() // never shut down; lives for the process
})

// FuzzSubmit feeds arbitrary POST /jobs bodies through the submit
// pipeline — JSON decode → admission caps → circuit parse → validate →
// config bounds → (bounded) route. No input may crash the server, and
// every rejection must be a client error (4xx), never a 5xx.
func FuzzSubmit(f *testing.F) {
	var ckt bytes.Buffer
	if err := circuit.Format(&ckt, circuit.SampleSmall()); err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(SubmitRequest{Circuit: ckt.String()})
	if err != nil {
		f.Fatal(err)
	}
	withCfg, err := json.Marshal(SubmitRequest{
		Circuit: ckt.String(),
		Config:  &JobConfig{UseConstraints: true, DelayModel: "elmore", RPerUm: 0.0005},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(valid))
	f.Add(string(withCfg))
	f.Add(`{}`)
	f.Add(`{"circuit":"not a circuit"}`)
	f.Add(`{"circuit":"circuit x\n","config":{"delay_model":"warp"}}`)
	f.Add(`{"circuit":"circuit x\n","config":{"workers":-1,"max_passes":-9}}`)
	f.Add(`{"circuit":"circuit x\n","config":{"r_per_um":-1e308}}`)
	f.Add(`{"circuit":"` + strings.Repeat("n", 9000) + `"}`)
	f.Add(`{"circuit":"circuit x\n","nope":1}`)
	f.Add(`[[[`)

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		fuzzHandler().ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("submit pipeline answered %d for %q: %s", rec.Code, body, rec.Body.String())
		}
	})
}
