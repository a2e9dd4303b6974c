package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/engine"
)

// TestRouteCtxCancelMidPhase cancels the run from inside the first
// progress event of the initial phase and asserts RouteCtx returns
// promptly with an error wrapping context.Canceled.
func TestRouteCtxCancelMidPhase(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := engine.Config{UseConstraints: true}
	fired := false
	cfg.Progress = func(p engine.Progress) {
		if !fired && p.Phase == "initial" {
			fired = true
			cancel()
		}
	}
	start := time.Now()
	res, err := RouteCtx(ctx, circuit.SampleSmall(), cfg)
	if res != nil {
		t.Fatalf("RouteCtx returned a result after cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RouteCtx error = %v, want wrapped context.Canceled", err)
	}
	if !fired {
		t.Fatalf("progress callback never fired for the initial phase")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancel took %v, want prompt return", el)
	}
}

// TestRouteCtxPreCancelled rejects an already-dead context before any work.
func TestRouteCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RouteCtx(ctx, circuit.SampleSmall(), engine.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RouteCtx error = %v, want wrapped context.Canceled", err)
	}
}

// TestRouteCtxDeadline maps an expired deadline to context.DeadlineExceeded.
func TestRouteCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := RouteCtx(ctx, circuit.SampleSmall(), engine.Config{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RouteCtx error = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// TestRouteProgressEvents checks the event stream shape: every phase
// opens with a start event and closes with Done, counters are
// monotonic within a phase, and Route's result matches the final events.
func TestRouteProgressEvents(t *testing.T) {
	var events []engine.Progress
	cfg := engine.Config{UseConstraints: true, Progress: func(p engine.Progress) { events = append(events, p) }}
	res, err := Route(circuit.SampleSmall(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	done := map[string]engine.Progress{}
	last := map[string]engine.Progress{}
	for _, e := range events {
		if prev, ok := last[e.Phase]; ok && !e.Done {
			if e.Deletions < prev.Deletions || e.Reroutes < prev.Reroutes {
				t.Fatalf("counters went backwards in phase %s: %+v after %+v", e.Phase, e, prev)
			}
		}
		last[e.Phase] = e
		if e.Done {
			done[e.Phase] = e
		}
	}
	for _, ps := range res.Phases {
		d, ok := done[ps.Name]
		if !ok {
			t.Fatalf("phase %s has no Done event", ps.Name)
		}
		if d.Deletions != ps.Deletions || d.Reroutes != ps.Reroutes || d.Accepted != ps.Accepted {
			t.Fatalf("phase %s Done event %+v disagrees with PhaseStat %+v", ps.Name, d, ps)
		}
		if ps.Duration <= 0 {
			t.Fatalf("phase %s has non-positive duration", ps.Name)
		}
	}
	if res.Duration <= 0 {
		t.Fatalf("Result.Duration = %v, want > 0", res.Duration)
	}
}
