// Package engine defines the seam between the routing service and the
// routing algorithms: a small Engine interface over the shared substrate
// (circuit, grid, feed, rgraph, density, dgraph), the shared Config and
// Result surface every engine speaks, and a process-wide registry.
//
// Three engines implement it:
//
//   - "concurrent" (internal/core): the paper's concurrent edge-deletion
//     router, the default. Highest quality; supports ECO re-optimization
//     and byte-identical results across worker counts.
//   - "steiner" (internal/steiner): timing-constrained cost-distance
//     Steiner trees per Held & Perner — per-net trees built under delay
//     bounds instead of deleted from redundant graphs. The middle of the
//     quality/runtime space.
//   - "sequential" (internal/seqroute): the net-at-a-time baseline the
//     paper argues against — steiner's build phase without refinement.
//     Fast drafts, no global margin tracking.
//
// Engines register themselves in init(); importing an engine package is
// what makes it selectable. The registry is a slice, not a map, so
// listing order is deterministic (registration order, which Go fixes by
// import order).
package engine

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/circuit"
)

// DefaultName is the engine used when a caller does not pick one: the
// paper's concurrent edge-deletion router.
const DefaultName = "concurrent"

// Capabilities declares what a registered engine supports, so callers
// (the service, conformance tests) can gate features without knowing
// engine internals.
type Capabilities struct {
	// Progress: the engine delivers Config.Progress snapshots mid-route.
	Progress bool
	// ECO: the engine supports incremental re-optimization of a finished
	// result (core.ReOptimize-style).
	ECO bool
	// Phases: the engine fills Result.Phases with per-phase statistics.
	Phases bool
	// Workers: the engine honors Config.Workers with intra-run
	// parallelism. Engines without it clamp to one worker (results are
	// byte-identical either way; this only tells callers whether extra
	// cores buy wall-clock).
	Workers bool
}

// Engine is one global-routing algorithm behind the shared substrate.
// Implementations must be stateless values: Route may be called
// concurrently from many service workers.
type Engine interface {
	// Name is the registry key ("concurrent", "sequential", "steiner").
	Name() string
	// Capabilities reports what this engine supports.
	Capabilities() Capabilities
	// Route routes a validated circuit under cfg. The run aborts between
	// routing steps when ctx is cancelled. Results must be deterministic:
	// byte-identical routedb output for identical (circuit, cfg) inputs,
	// for every Workers value.
	Route(ctx context.Context, ckt *circuit.Circuit, cfg Config) (*Result, error)
}

// engines is the registry. A slice, not a map: iteration order is
// registration order and therefore deterministic.
var engines []Engine

// Register adds an engine to the registry. It panics on a duplicate or
// empty name — both are programmer errors at init time.
func Register(e Engine) {
	name := e.Name()
	if name == "" {
		panic("engine: Register with empty name")
	}
	for _, have := range engines {
		if have.Name() == name {
			panic("engine: duplicate Register of " + name)
		}
	}
	engines = append(engines, e)
}

// Get resolves an engine by name; the empty string resolves to
// DefaultName. The bool is false when no such engine is registered.
func Get(name string) (Engine, bool) {
	if name == "" {
		name = DefaultName
	}
	for _, e := range engines {
		if e.Name() == name {
			return e, true
		}
	}
	return nil, false
}

// Names lists the registered engines, sorted.
func Names() []string {
	out := make([]string, len(engines))
	for i, e := range engines {
		out[i] = e.Name()
	}
	sort.Strings(out)
	return out
}

// Route resolves name and routes ckt with it — the one-call form used by
// commands. An unregistered name is an error listing what is available.
func Route(ctx context.Context, name string, ckt *circuit.Circuit, cfg Config) (*Result, error) {
	e, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (registered: %v)", name, Names())
	}
	return e.Route(ctx, ckt, cfg)
}
