package service

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestBodyCap: POST /jobs bodies beyond MaxBodyBytes answer 413 and
// count as rejections.
func TestBodyCap(t *testing.T) {
	svc := New(Options{Workers: 1, MaxBodyBytes: 256, Logf: func(string, ...any) {}})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	big := `{"circuit":"` + strings.Repeat("x", 1024) + `"}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if m := svc.Metrics(); m.RejectedSize != 1 {
		t.Fatalf("rejected_too_large = %d, want 1", m.RejectedSize)
	}
}

// TestCircuitCaps: the circuit-size admission caps reject before any
// routing work, as ErrTooLarge via the Go API and 413 over HTTP.
func TestCircuitCaps(t *testing.T) {
	cktText := readExample(t)

	for name, opts := range map[string]Options{
		"bytes": {Workers: 1, MaxCircuitBytes: 64},
		"nets":  {Workers: 1, MaxNets: 1},
		"cells": {Workers: 1, MaxCells: 1},
	} {
		opts.Logf = func(string, ...any) {}
		svc := New(opts)
		if _, err := svc.Submit(SubmitRequest{Circuit: cktText}); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s cap: err = %v, want ErrTooLarge", name, err)
		}
		if m := svc.Metrics(); m.RejectedSize != 1 {
			t.Errorf("%s cap: rejected_too_large = %d, want 1", name, m.RejectedSize)
		}
		ts := httptest.NewServer(svc.Handler())
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"circuit":`+mustJSONString(cktText)+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s cap over HTTP: status %d, want 413", name, resp.StatusCode)
		}
		ts.Close()
		svc.Shutdown(context.Background())
	}
}

func mustJSONString(s string) string {
	var b bytes.Buffer
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// TestConfigBounds: non-finite or negative JobConfig numbers, a
// non-zero value in a field that can no longer be set, and an unknown
// delay model or net order are client errors (400, "bad config"), never
// routing work.
func TestConfigBounds(t *testing.T) {
	cktText := readExample(t)
	svc := New(Options{Workers: 1, Logf: func(string, ...any) {}})
	defer svc.Shutdown(context.Background())

	// NaN/Inf cannot travel through JSON; exercise the Go API directly.
	for name, jc := range map[string]JobConfig{
		"nan":      {RPerUm: math.NaN()},
		"inf":      {RPerUm: math.Inf(1)},
		"negative": {RPerUm: -1},
		"passes":   {MaxPasses: -2},
		"passes-3": {MaxPasses: 3},
		"workers":  {Workers: -1},
		"alpha":    {Alpha: 2},
		"target":   {TargetTracks: 3},
		"greedy":   {GreedyChannels: true},
		"hpwl":     {Order: "hpwl"},
		"fanout":   {Order: "fanout"},
		"model":    {DelayModel: "rc"},
	} {
		cfg := jc
		if _, err := svc.Submit(SubmitRequest{Circuit: cktText, Config: &cfg}); err == nil {
			t.Errorf("%s: bad config accepted", name)
		} else if errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: config error misclassified as too-large: %v", name, err)
		} else if !strings.HasPrefix(err.Error(), "bad config: ") {
			t.Errorf("%s: error %q does not start with bad config", name, err)
		}
	}

	// Over HTTP the same class of error is a 400, not a 5xx. The circuit
	// is valid, so the config is what gets rejected.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for name, cfg := range map[string]string{
		"neg-workers": `{"workers":-1}`,
		"neg-passes":  `{"max_passes":-3}`,
		"passes":      `{"max_passes":3}`,
		"neg-rperum":  `{"r_per_um":-0.5}`,
		"alpha":       `{"alpha":2}`,
		"greedy":      `{"greedy_channels":true}`,
		"hpwl":        `{"order":"hpwl"}`,
		"fanout":      `{"order":"fanout"}`,
		"model":       `{"delay_model":"rc"}`,
	} {
		body := `{"circuit":` + mustJSONString(cktText) + `,"config":` + cfg + `}`
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte("bad config")) {
			t.Errorf("%s: status %d %s, want 400 bad config", name, resp.StatusCode, msg)
		}
	}
}

// TestSSEHeartbeat: an idle stream (job held in beforeRun) receives
// `: keepalive` comment lines so proxies keep the connection open, and
// still ends with the terminal event.
func TestSSEHeartbeat(t *testing.T) {
	cktText := readExample(t)
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	svc := New(Options{Workers: 1, sseHeartbeat: 20 * time.Millisecond,
		beforeRun: func(*Job) { <-gate }})
	defer svc.Shutdown(context.Background())
	defer release()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	sub := postJob(t, ts.URL, SubmitRequest{Circuit: cktText})
	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	keepalives := 0
	sc := bufio.NewScanner(resp.Body)
	deadline := time.AfterFunc(10*time.Second, release)
	defer deadline.Stop()
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ": keepalive") {
			keepalives++
			if keepalives >= 3 {
				release() // saw enough heartbeats; let the job finish
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if keepalives < 3 {
		t.Fatalf("saw %d keepalive comments on an idle stream, want >= 3", keepalives)
	}
}
