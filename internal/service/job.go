package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/engine"
)

// State is a job's lifecycle state.
type State string

const (
	// Queued: accepted, waiting for a worker.
	Queued State = "queued"
	// Running: a worker is routing it.
	Running State = "running"
	// Done: finished; results are available.
	Done State = "done"
	// Failed: routing or channel routing returned an error (including a
	// per-job deadline expiry).
	Failed State = "failed"
	// Cancelled: aborted by a client (or server shutdown) before finishing.
	Cancelled State = "cancelled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Summary is the headline numbers of a finished routing.
type Summary struct {
	DelayPs      float64 `json:"delay_ps"`
	Violations   int     `json:"violations"`
	AreaMm2      float64 `json:"area_mm2"`
	WirelenMm    float64 `json:"wirelen_mm"`
	Tracks       int     `json:"tracks"`
	AddedPitches int     `json:"added_pitches"`
	Nets         int     `json:"nets"`
	Constraints  int     `json:"constraints"`
}

// Payload holds every rendered form of a finished routing. Payloads are
// immutable once built, so the cache can hand the same one to many jobs;
// identical submissions therefore serve byte-identical responses.
type Payload struct {
	RouteDB []byte // indented routedb JSON, as routedb.Marshal emits it
	Timing  string // plain-text timing report + slack histogram
	SVG     string // chip drawing
	Layout  string // ASCII layout
	Summary Summary
}

// PhaseInfo is the per-phase trace exposed over the API. The select_*
// fields profile the candidate-selection engine: time spent in selectEdge,
// how often it ran, and how many per-net scores were recomputed vs served
// from the incremental cache. The timing_* fields profile the incremental
// timing engine: time inside Timing.Flush, how often it ran, and how many
// constraints the dirty sets actually re-analyzed.
type PhaseInfo struct {
	Name          string  `json:"name"`
	DurationMs    float64 `json:"duration_ms"`
	Deletions     int     `json:"deletions"`
	Reroutes      int     `json:"reroutes"`
	Accepted      int     `json:"accepted"`
	SelectMs      float64 `json:"select_ms,omitempty"`
	SelectCalls   int     `json:"select_calls,omitempty"`
	ScoredNets    int     `json:"scored_nets,omitempty"`
	ReusedNets    int     `json:"reused_nets,omitempty"`
	TimingMs      float64 `json:"timing_ms,omitempty"`
	TimingFlushes int     `json:"timing_flushes,omitempty"`
	TimingCons    int     `json:"timing_cons,omitempty"`
}

// ProgressInfo is the latest mid-flight snapshot of a running job.
type ProgressInfo struct {
	Phase      string `json:"phase"`
	Deletions  int    `json:"deletions"`
	Reroutes   int    `json:"reroutes"`
	Accepted   int    `json:"accepted"`
	Violations int    `json:"violations"`
}

// Status is the externally visible snapshot of a job.
type Status struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Engine is the routing engine the job runs with ("" on jobs
	// replayed from a journal written before engines existed).
	Engine   string        `json:"engine,omitempty"`
	Circuit  string        `json:"circuit"`
	Progress *ProgressInfo `json:"progress,omitempty"`
	Phases   []PhaseInfo   `json:"phases,omitempty"`
	Summary  *Summary      `json:"summary,omitempty"`
	// PanicStack is the captured goroutine stack when the job failed
	// because its routing run panicked (the worker recovered it).
	PanicStack string `json:"panic_stack,omitempty"`
}

// Job is one routing request moving through the queue. All mutable state
// is guarded by mu; the identity fields are set at submit time and never
// change.
type Job struct {
	ID   string
	Hash string

	// name is the circuit name, kept separately from ckt so jobs
	// rebuilt from the journal (which never re-parse the circuit) can
	// still report it.
	name string
	ckt  *circuit.Circuit
	// eng routes the job; engName is kept separately so jobs rebuilt
	// from the journal can report the engine without resolving it.
	eng     engine.Engine
	engName string
	cfg     engine.Config
	timeout time.Duration

	mu       sync.Mutex
	state    State
	errMsg   string
	stack    string // captured stack when a panicking run failed the job
	cached   bool
	progress *ProgressInfo
	phases   []PhaseInfo
	payload  *Payload
	cancel   context.CancelFunc
	done     chan struct{}

	// gcNoted marks the job as registered with the retention policy; it
	// is guarded by the Server's mutex, not the job's.
	gcNoted bool
}

// Snapshot returns a consistent copy of the job's visible state.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.ID,
		State:      j.state,
		Cached:     j.cached,
		Error:      j.errMsg,
		Engine:     j.engName,
		Circuit:    j.name,
		PanicStack: j.stack,
	}
	if j.progress != nil {
		p := *j.progress
		st.Progress = &p
	}
	if len(j.phases) > 0 {
		st.Phases = append([]PhaseInfo(nil), j.phases...)
	}
	if j.payload != nil {
		s := j.payload.Summary
		st.Summary = &s
	}
	return st
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Payload returns the finished result, or nil while the job is not Done.
func (j *Job) Payload() *Payload {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.payload
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) setProgress(p engine.Progress) {
	j.mu.Lock()
	j.progress = &ProgressInfo{Phase: p.Phase, Deletions: p.Deletions,
		Reroutes: p.Reroutes, Accepted: p.Accepted, Violations: p.Violations}
	j.mu.Unlock()
}

// begin moves a dequeued job to Running and installs its cancel func.
// It returns false when the job was cancelled while queued.
func (j *Job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Queued {
		return false
	}
	j.state = Running
	j.cancel = cancel
	return true
}

// finish moves the job to a terminal state. It is a no-op if the job is
// already terminal (e.g. cancelled racing completion). stack carries
// the captured goroutine stack when a panic failed the job.
func (j *Job) finish(st State, errMsg, stack string, p *Payload, phases []PhaseInfo) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = st
	j.errMsg = errMsg
	j.stack = stack
	j.payload = p
	j.phases = phases
	j.cancel = nil
	close(j.done)
	return true
}

// requestCancel cancels a queued job immediately or signals a running
// one. It returns the state observed and whether the job moved to
// Cancelled right now.
//
// Terminal-state invariant (audited): no interleaving of requestCancel
// with worker completion can release the dedupe slot twice, leak it, or
// journal two terminal records.
//
//   - Cancel lands while Queued: this method moves the job to Cancelled
//     under mu and reports cancelledNow=true, so Server.Cancel (the only
//     caller acting on that flag) runs jobFinished exactly once. The
//     worker that later dequeues the job observes begin() == false and
//     returns without touching it.
//   - Cancel lands while Running: this method only fires j.cancel; the
//     worker's run returns with ctx.Err, and finishJob classifies it as
//     Cancelled and runs jobFinished — again exactly one release, on the
//     worker's path.
//   - Cancel races the worker's finish: both paths funnel through
//     j.finish / the transitions above under mu, and finish's
//     Terminal() guard makes the loser a no-op that skips jobFinished.
//   - Double cancel: a terminal job falls through to the default arm,
//     cancelledNow=false, no second release.
//
// Journal writes are additionally guarded by gcNoted (under the
// Server's mutex, via noteTerminalLocked), so whichever path wins
// records at most one terminal entry. TestCancelRaceSlotRelease pins
// the queued-cancel race under -race.
func (j *Job) requestCancel() (State, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case Queued:
		j.state = Cancelled
		j.errMsg = "cancelled while queued"
		close(j.done)
		return Cancelled, true
	case Running:
		if j.cancel != nil {
			j.cancel()
		}
		return Running, false
	default:
		return j.state, false
	}
}

func phaseInfos(stats []engine.PhaseStat) []PhaseInfo {
	out := make([]PhaseInfo, len(stats))
	for i, ps := range stats {
		out[i] = PhaseInfo{
			Name:          ps.Name,
			DurationMs:    float64(ps.Duration) / float64(time.Millisecond),
			Deletions:     ps.Deletions,
			Reroutes:      ps.Reroutes,
			Accepted:      ps.Accepted,
			SelectMs:      float64(ps.SelectDuration) / float64(time.Millisecond),
			SelectCalls:   ps.SelectCalls,
			ScoredNets:    ps.ScoredNets,
			ReusedNets:    ps.ReusedNets,
			TimingMs:      float64(ps.TimingDuration) / float64(time.Millisecond),
			TimingFlushes: ps.TimingFlushes,
			TimingCons:    ps.TimingCons,
		}
	}
	return out
}
