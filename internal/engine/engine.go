// Package engine defines the seam between the routing service and the
// routing algorithms: a small Engine interface over the shared substrate
// (circuit, grid, feed, rgraph, density, dgraph), the shared Config and
// Result surface every engine speaks, and a process-wide registry.
//
// Two routers implement it, under three names:
//
//   - "concurrent" (internal/core): the paper's concurrent edge-deletion
//     router, the default. Highest quality; supports ECO re-optimization
//     (core.ReOptimize).
//   - "sequential" (internal/seqroute) and "steiner" (internal/steiner):
//     one per-net router, the net-at-a-time baseline the paper argues
//     against. Nets route one after another in ascending static slack,
//     each as a congestion-weighted shortest-path tree built on its own
//     graph instead of deleted from a shared redundant one. Fast drafts,
//     no global margin tracking. Both names give the same routedb bytes.
//
// Every engine routes one circuit on the calling goroutine, reports
// Progress and fills Result.Phases; parallelism comes from routing
// several circuits at once (the service's job workers). Engines register
// themselves in init(); importing an engine package is what makes it
// selectable. The registry is a slice, not a map, so listing order is
// deterministic (registration order, which Go fixes by import order).
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

// Engine is one global-routing algorithm behind the shared substrate.
// Implementations must be stateless values: Route may be called
// concurrently from many service workers.
type Engine interface {
	// Name is the registry key ("concurrent", "sequential", "steiner").
	Name() string
	// Route routes a validated circuit under cfg on the calling
	// goroutine. The run aborts between routing steps when ctx is
	// cancelled. Results must be deterministic: byte-identical routedb
	// output for identical (circuit, cfg) inputs.
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
