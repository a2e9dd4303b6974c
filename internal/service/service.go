// Package service turns the batch global router into a long-lived
// concurrent routing service: clients submit a circuit plus a routing
// config, get a job ID back, observe progress, and fetch the finished
// routing as routedb JSON, a timing report, an SVG drawing or an ASCII
// layout.
//
// Jobs run on a bounded worker pool fed by a FIFO queue. Identical
// in-flight submissions (same circuit text and canonical config) are
// coalesced onto one job, and finished results live in an LRU cache keyed
// by the same content hash, so re-submitting a design is served instantly
// and byte-identically. Each job runs under a context with a deadline;
// cancelling a queued job is immediate, cancelling a running one aborts
// the engine between routing steps.
//
// Each job routes with one registered engine (internal/engine), selected
// by JobConfig.Engine; the empty string is the default concurrent
// router, which this package links itself. Other engines are selectable
// when the embedding binary imports them (bgr-serve imports all three).
// Unknown engine names are rejected at admission with ErrBadEngine.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/routedb"

	// The default engine is part of the service's contract: a Server can
	// always route with "concurrent" even if the embedding binary imports
	// nothing else.
	_ "repro/internal/core"
)

// Errors surfaced to submitters.
var (
	// ErrQueueFull: the FIFO queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("service: queue full")
	// ErrShuttingDown: the server no longer accepts jobs (HTTP 503).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrTooLarge: the submission exceeds a configured size cap — circuit
	// bytes, nets or cells (HTTP 413). Checked before any routing work.
	ErrTooLarge = errors.New("service: submission too large")
	// ErrBadEngine: the submission names an engine that is not registered
	// in this binary (HTTP 400). Checked at admission, before hashing or
	// queueing; the error text lists the registered engines.
	ErrBadEngine = errors.New("service: unknown engine")
)

// PanicError records a routing run that panicked: the worker recovered
// it, failed the job with the panic message, and kept the server alive.
// Stack is the goroutine stack captured at the recovery point.
type PanicError struct {
	Value string
	Stack string
}

func (e *PanicError) Error() string { return "panic: " + e.Value }

// Options configures a Server. The zero value gets sensible defaults.
type Options struct {
	// Workers is the routing worker pool size (default 2).
	Workers int
	// QueueDepth bounds the FIFO job queue (default 64).
	QueueDepth int
	// CacheSize bounds the LRU result cache, entries (default 32;
	// negative disables caching).
	CacheSize int
	// JobTimeout is the default per-job routing deadline (default 5m).
	// A submission may shorten it but never extend it.
	JobTimeout time.Duration
	// ScoreWorkers is ignored: each job routes on its worker's goroutine.
	//
	// Deprecated: ignored; kept so existing callers still compile.
	ScoreWorkers int

	// TerminalTTL is how long a finished/failed/cancelled job stays
	// addressable after reaching its terminal state (default 15m;
	// negative retains forever). Evicted jobs disappear from GET /jobs
	// and answer 404 by ID; streams already attached keep working and
	// the result cache is unaffected.
	TerminalTTL time.Duration
	// MaxTerminalJobs bounds how many terminal jobs are retained at
	// once, oldest-finished evicted first (default 1024; negative
	// unlimited).
	MaxTerminalJobs int

	// MaxBodyBytes caps the POST /jobs request body (default 8 MiB;
	// negative unlimited). Overflow answers HTTP 413.
	MaxBodyBytes int64
	// MaxCircuitBytes caps the circuit text, checked before parsing
	// (default 4 MiB; negative unlimited).
	MaxCircuitBytes int
	// MaxNets and MaxCells cap the parsed circuit, checked before any
	// routing work (defaults 50000 and 200000; negative unlimited).
	MaxNets  int
	MaxCells int

	// JournalPath, when non-empty, opens an append-only job journal
	// there (internal/journal): terminal jobs and finished results are
	// persisted as they happen, and Open replays the file so both
	// survive a restart. Empty disables durability.
	JournalPath string
	// JournalSync selects the journal fsync policy (default
	// journal.SyncAlways).
	JournalSync journal.SyncPolicy

	// Logf receives response-write failures and other non-fatal server
	// noise (default log.Printf).
	Logf func(format string, v ...any)

	// beforeRun, when set (tests only), is called by a worker after it
	// claims a job and before routing starts.
	beforeRun func(*Job)
	// sseHeartbeat overrides the SSE keepalive interval (tests only).
	sseHeartbeat time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 32
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 5 * time.Minute
	}
	if o.TerminalTTL == 0 {
		o.TerminalTTL = 15 * time.Minute
	}
	if o.MaxTerminalJobs == 0 {
		o.MaxTerminalJobs = 1024
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.MaxCircuitBytes == 0 {
		o.MaxCircuitBytes = 4 << 20
	}
	if o.MaxNets == 0 {
		o.MaxNets = 50000
	}
	if o.MaxCells == 0 {
		o.MaxCells = 200000
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.sseHeartbeat <= 0 {
		o.sseHeartbeat = 15 * time.Second
	}
	return o
}

// JobConfig is the client-facing subset of the shared engine config.
// Its canonical JSON form is part of the cache key; every field added
// since v1 is omitempty so default submissions hash identically across
// versions and old journals keep re-warming the cache.
type JobConfig struct {
	// Engine names the routing engine ("" = the default "concurrent";
	// bgr-serve also registers "sequential" and "steiner", two names for
	// one per-net router). Unknown names are rejected at admission with
	// ErrBadEngine.
	Engine          string  `json:"engine,omitempty"`
	UseConstraints  bool    `json:"use_constraints"`
	DelayModel      string  `json:"delay_model,omitempty"` // "", "lumped", "elmore"
	RPerUm          float64 `json:"r_per_um,omitempty"`
	AreaFirst       bool    `json:"area_first,omitempty"`
	SkipImprovement bool    `json:"skip_improvement,omitempty"`
	Order           string  `json:"order,omitempty"` // "", "slack", "index"
	NoFeedReroute   bool    `json:"no_feed_reroute,omitempty"`
	// Workers and Shards are deprecated and ignored: the per-run scoring
	// worker count and the selection shard count they used to set no
	// longer exist. They are still decoded so that old clients'
	// submissions are not rejected as unknown fields (a negative Workers
	// is still a bad config), and Submit zeroes both before hashing, so a
	// submission carrying them dedupes and caches with the same job sent
	// without them. Journals store only the hash, so replay is
	// unaffected.
	Workers int `json:"workers,omitempty"`
	Shards  int `json:"shards,omitempty"`
	// Alpha and TargetTracks used to tune the per-net engines'
	// congestion penalty and density target, and MaxPasses the
	// concurrent engine's passes per improvement phase; all three are
	// now fixed. They are still decoded so that a submission sending
	// them as 0 (the sample config in docs/SERVICE.md does) is accepted
	// and hashes like one without them; any other value is a bad config,
	// because it asked for a routing the server no longer produces.
	Alpha        float64 `json:"alpha,omitempty"`
	TargetTracks int     `json:"target_tracks,omitempty"`
	MaxPasses    int     `json:"max_passes,omitempty"`
	// GreedyChannels used to select a second channel router, which is
	// gone; every job is channel-routed by chanroute.Route. It is decoded
	// on the same terms as Alpha: false is accepted and hashes like a
	// submission without it, true is a bad config.
	GreedyChannels bool `json:"greedy_channels,omitempty"`
}

// DefaultJobConfig is used when a submission omits "config".
func DefaultJobConfig() JobConfig { return JobConfig{UseConstraints: true} }

// validate bounds-checks the numeric fields before they reach the
// router or the cache key: NaN/Inf/negative resistance, negative
// counters and a value in a field that can no longer be set are client
// errors, not routing work.
func (jc JobConfig) validate() error {
	if math.IsNaN(jc.RPerUm) || math.IsInf(jc.RPerUm, 0) || jc.RPerUm < 0 {
		return fmt.Errorf("r_per_um %v must be a finite non-negative number", jc.RPerUm)
	}
	if jc.Workers < 0 {
		return fmt.Errorf("workers %d must not be negative", jc.Workers)
	}
	if jc.Alpha != 0 {
		return fmt.Errorf("alpha %v: the field can no longer be set; send 0 or leave it out", jc.Alpha)
	}
	if jc.TargetTracks != 0 {
		return fmt.Errorf("target_tracks %d: the field can no longer be set; send 0 or leave it out", jc.TargetTracks)
	}
	if jc.MaxPasses != 0 {
		return fmt.Errorf("max_passes %d: the field can no longer be set; send 0 or leave it out", jc.MaxPasses)
	}
	if jc.GreedyChannels {
		return errors.New("greedy_channels: the field can no longer be set; send false or leave it out")
	}
	return nil
}

// toEngine translates to the shared engine.Config, rejecting unknown
// enum strings.
func (jc JobConfig) toEngine() (engine.Config, error) {
	cfg := engine.Config{
		UseConstraints:  jc.UseConstraints,
		RPerUm:          jc.RPerUm,
		AreaFirst:       jc.AreaFirst,
		SkipImprovement: jc.SkipImprovement,
		NoFeedReroute:   jc.NoFeedReroute,
	}
	switch jc.DelayModel {
	case "", "lumped":
	case "elmore":
		cfg.DelayModel = engine.Elmore
	default:
		return cfg, fmt.Errorf("unknown delay_model %q", jc.DelayModel)
	}
	switch jc.Order {
	case "", "slack":
	case "index":
		cfg.Order = engine.OrderIndex
	default:
		return cfg, fmt.Errorf("unknown order %q", jc.Order)
	}
	return cfg, nil
}

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	// Circuit is the design in the .ckt text format (circuit.Parse).
	Circuit string `json:"circuit"`
	// Config selects the routing mode; nil means DefaultJobConfig.
	Config *JobConfig `json:"config,omitempty"`
	// TimeoutMs optionally tightens the per-job deadline below the
	// server default. It is not part of the cache key.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// SubmitResult reports how a submission was satisfied.
type SubmitResult struct {
	Job *Job
	// Cached: served straight from the result cache (job is born Done).
	Cached bool
	// Deduped: coalesced onto an already in-flight identical job.
	Deduped bool
}

// Server is the routing service. Create with New, expose with Handler,
// stop with Shutdown.
type Server struct {
	opts    Options
	metrics *metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	seq      int
	jobs     map[string]*Job
	order    []string        // submission order, for GET /jobs
	inflight map[string]*Job // content hash → queued/running job
	cache    *resultCache
	// terminal records retained terminal jobs in the order they
	// finished; the retention policy (TerminalTTL, MaxTerminalJobs)
	// evicts from its front.
	terminal []terminalRec
	stop     chan struct{} // closed by Shutdown; stops the janitor

	// jl is the durable job journal, nil when durability is disabled.
	// Appends happen under s.mu, which orders a job's submitted record
	// before its terminal record; replaying marks replayed jobs so they
	// are not re-journaled.
	jl        *journal.Journal
	replaying bool
	// journaledResults tracks which content hashes already have a
	// result record on disk, so a cache-evicted rerun of the same
	// circuit does not append its (identical) payload again.
	journaledResults map[string]bool
}

// terminalRec is one retained terminal job: its ID and when it became
// terminal.
type terminalRec struct {
	id string
	at time.Time
}

// New starts a Server, its worker pool, and (when a TTL is configured)
// the retention janitor. It is Open for configurations that cannot
// fail; it panics if opts.JournalPath is set and the journal cannot be
// opened — use Open to handle that error.
func New(opts Options) *Server {
	s, err := Open(opts)
	if err != nil {
		panic("service.New: " + err.Error())
	}
	return s
}

// Open starts a Server like New and, when opts.JournalPath is set,
// first replays the job journal: terminal jobs reappear in the job
// table, finished results re-warm the LRU cache (identical
// resubmissions hit disk instead of re-routing), and jobs that were
// mid-route at crash time surface as failed with their dedupe slot
// free, so resubmitting them routes fresh.
func Open(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:             opts,
		metrics:          newMetrics(),
		baseCtx:          ctx,
		baseCancel:       cancel,
		queue:            make(chan *Job, opts.QueueDepth),
		jobs:             make(map[string]*Job),
		inflight:         make(map[string]*Job),
		cache:            newResultCache(opts.CacheSize),
		stop:             make(chan struct{}),
		journaledResults: make(map[string]bool),
	}
	if opts.JournalPath != "" {
		jl, recs, err := journal.Open(opts.JournalPath, opts.JournalSync)
		if err != nil {
			cancel()
			return nil, err
		}
		s.jl = jl
		s.mu.Lock()
		s.replayJournal(recs)
		s.mu.Unlock()
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if opts.TerminalTTL > 0 {
		s.wg.Add(1)
		go s.janitor(janitorInterval(opts.TerminalTTL))
	}
	return s, nil
}

// janitorInterval picks a sweep period for a terminal-job TTL: a
// quarter of the TTL, clamped so tiny test TTLs still sweep promptly
// and huge TTLs don't stall eviction for hours.
func janitorInterval(ttl time.Duration) time.Duration {
	iv := ttl / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	if iv > 30*time.Second {
		iv = 30 * time.Second
	}
	return iv
}

// janitor periodically evicts terminal jobs past their TTL. Size-cap
// eviction happens inline as jobs finish; the janitor only has to catch
// age on an otherwise idle server.
func (s *Server) janitor(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			s.gcLocked(time.Now())
			s.mu.Unlock()
		}
	}
}

// noteTerminalLocked registers a job that just reached a terminal state
// with the retention policy and immediately enforces the size cap;
// s.mu must be held. Safe to call more than once per job.
func (s *Server) noteTerminalLocked(j *Job) {
	if j.gcNoted {
		return
	}
	j.gcNoted = true
	s.terminal = append(s.terminal, terminalRec{id: j.ID, at: time.Now()})
	if !s.replaying {
		s.journalTerminalLocked(j)
	}
	s.gcLocked(time.Now())
}

// gcLocked evicts terminal jobs that are beyond the TTL or over the
// size cap, oldest-finished first; s.mu must be held. Eviction removes
// the job from the ID map and the submission-order list only — result
// cache entries and streams holding a *Job are untouched.
func (s *Server) gcLocked(now time.Time) {
	ttl, maxT := s.opts.TerminalTTL, s.opts.MaxTerminalJobs
	cut := 0
	for cut < len(s.terminal) {
		over := maxT > 0 && len(s.terminal)-cut > maxT
		stale := ttl > 0 && now.Sub(s.terminal[cut].at) > ttl
		if !over && !stale {
			break
		}
		delete(s.jobs, s.terminal[cut].id)
		cut++
	}
	if cut == 0 {
		return
	}
	s.terminal = append(s.terminal[:0], s.terminal[cut:]...)
	s.metrics.evicted.Add(int64(cut))
	keep := s.order[:0]
	for _, id := range s.order {
		if _, ok := s.jobs[id]; ok {
			keep = append(keep, id)
		}
	}
	s.order = keep
}

// hashKey is the content hash of (canonical config JSON, circuit text).
func hashKey(cktText string, jc JobConfig) string {
	cfgJSON, _ := json.Marshal(jc)
	h := sha256.New()
	h.Write(cfgJSON)
	h.Write([]byte{0})
	h.Write([]byte(cktText))
	return hex.EncodeToString(h.Sum(nil))
}

// Submit validates and enqueues a routing request. Identical in-flight
// requests coalesce onto one job; cached results produce a job that is
// already Done. Size caps (ErrTooLarge) are enforced before parsing
// where possible and always before any routing work.
func (s *Server) Submit(req SubmitRequest) (SubmitResult, error) {
	if max := s.opts.MaxCircuitBytes; max > 0 && len(req.Circuit) > max {
		s.metrics.rejected.Add(1)
		return SubmitResult{}, fmt.Errorf("%w: circuit text %d bytes exceeds cap %d", ErrTooLarge, len(req.Circuit), max)
	}
	ckt, err := circuit.Parse(strings.NewReader(req.Circuit))
	if err != nil {
		return SubmitResult{}, err
	}
	if max := s.opts.MaxNets; max > 0 && len(ckt.Nets) > max {
		s.metrics.rejected.Add(1)
		return SubmitResult{}, fmt.Errorf("%w: %d nets exceeds cap %d", ErrTooLarge, len(ckt.Nets), max)
	}
	if max := s.opts.MaxCells; max > 0 && len(ckt.Cells) > max {
		s.metrics.rejected.Add(1)
		return SubmitResult{}, fmt.Errorf("%w: %d cells exceeds cap %d", ErrTooLarge, len(ckt.Cells), max)
	}
	if err := ckt.Validate(); err != nil {
		return SubmitResult{}, err
	}
	jc := DefaultJobConfig()
	if req.Config != nil {
		jc = *req.Config
	}
	if err := jc.validate(); err != nil {
		return SubmitResult{}, fmt.Errorf("bad config: %w", err)
	}
	jc.Workers, jc.Shards = 0, 0 // deprecated and ignored; see JobConfig.Workers
	eng, ok := engine.Get(jc.Engine)
	if !ok {
		s.metrics.rejectedBadEngine.Add(1)
		return SubmitResult{}, fmt.Errorf("%w %q (registered: %s)", ErrBadEngine, jc.Engine, strings.Join(engine.Names(), ", "))
	}
	cfg, err := jc.toEngine()
	if err != nil {
		return SubmitResult{}, fmt.Errorf("bad config: %w", err)
	}
	timeout := s.opts.JobTimeout
	if t := time.Duration(req.TimeoutMs) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	hash := hashKey(req.Circuit, jc)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SubmitResult{}, ErrShuttingDown
	}
	if j, ok := s.inflight[hash]; ok {
		s.metrics.deduped.Add(1)
		return SubmitResult{Job: j, Deduped: true}, nil
	}
	if e, ok := s.cache.get(hash); ok {
		s.metrics.cacheHits.Add(1)
		j := s.newJobLocked(ckt, eng, cfg, timeout, hash)
		j.state = Done
		j.cached = true
		j.payload = e.payload
		j.phases = append([]PhaseInfo(nil), e.phases...)
		close(j.done)
		s.noteTerminalLocked(j)
		return SubmitResult{Job: j, Cached: true}, nil
	}
	s.metrics.cacheMiss.Add(1)
	j := s.newJobLocked(ckt, eng, cfg, timeout, hash)
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		return SubmitResult{}, ErrQueueFull
	}
	s.inflight[hash] = j
	s.metrics.accepted.Add(1)
	s.journalSubmittedLocked(j)
	return SubmitResult{Job: j}, nil
}

// newJobLocked allocates and registers a job; s.mu must be held.
func (s *Server) newJobLocked(ckt *circuit.Circuit, eng engine.Engine, cfg engine.Config, timeout time.Duration, hash string) *Job {
	s.seq++
	j := &Job{
		ID:      fmt.Sprintf("j%04d-%s", s.seq, hash[:8]),
		Hash:    hash,
		name:    ckt.Name,
		ckt:     ckt,
		eng:     eng,
		engName: eng.Name(),
		cfg:     cfg,
		timeout: timeout,
		state:   Queued,
		done:    make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	return j
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns status snapshots in submission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// Cancel aborts a job: a queued job flips to Cancelled immediately, a
// running one is interrupted (its worker records the final state). The
// returned bool is false for unknown IDs.
func (s *Server) Cancel(id string) (Status, bool) {
	j, ok := s.Job(id)
	if !ok {
		return Status{}, false
	}
	if _, cancelledNow := j.requestCancel(); cancelledNow {
		s.metrics.cancelled.Add(1)
		s.jobFinished(j)
	}
	return j.Snapshot(), true
}

// Wait blocks until the job is terminal or ctx expires.
func (s *Server) Wait(ctx context.Context, id string) (Status, error) {
	j, ok := s.Job(id)
	if !ok {
		return Status{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.Done():
		return j.Snapshot(), nil
	case <-ctx.Done():
		return j.Snapshot(), ctx.Err()
	}
}

// Metrics returns the current counter snapshot.
func (s *Server) Metrics() MetricsSnapshot {
	s.mu.Lock()
	entries := s.cache.len()
	retained := len(s.terminal)
	s.mu.Unlock()
	var jrecs, jbytes int64
	if s.jl != nil {
		jrecs, jbytes = s.jl.Stats()
	}
	return s.metrics.snapshot(len(s.queue), s.opts.Workers, entries, retained, jrecs, jbytes)
}

// Shutdown stops accepting jobs, lets the workers drain the queue, and
// waits for them. If ctx expires first, every remaining job is cancelled
// and Shutdown still waits for the workers before returning ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
		close(s.stop)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	// Workers are parked, so every terminal transition is journaled;
	// flush and close the journal as the last act of the drain. Stray
	// post-drain cancels see ErrClosed and are logged, not lost state —
	// an unjournaled cancel replays as an interrupted job.
	if s.jl != nil {
		if cerr := s.jl.Close(); cerr != nil {
			s.opts.Logf("service: close journal: %v", cerr)
		}
	}
	return err
}

// jobFinished releases a terminal job's dedupe slot (so the next
// identical submission starts a fresh run instead of wedging on a dead
// job) and registers it with the retention policy.
func (s *Server) jobFinished(j *Job) {
	s.mu.Lock()
	if s.inflight[j.Hash] == j {
		delete(s.inflight, j.Hash)
	}
	s.noteTerminalLocked(j)
	s.mu.Unlock()
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job end to end: route under the job context,
// channel-route, render every payload form, then publish to the cache.
// Routing and rendering run inside a recover() boundary, so a panicking
// run fails its job instead of killing the process.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithTimeout(s.baseCtx, j.timeout)
	defer cancel()
	if !j.begin(cancel) {
		// Cancelled while queued; Cancel already counted it.
		return
	}
	if s.opts.beforeRun != nil {
		s.opts.beforeRun(j)
	}
	start := time.Now()

	payload, phases, err := s.routeJob(ctx, j)
	if err != nil {
		s.finishJob(j, err)
		return
	}
	if j.finish(Done, "", "", payload, phases) {
		s.metrics.completed.Add(1)
		s.metrics.observeJob(j.engName, time.Since(start), phases)
	}
	s.mu.Lock()
	s.cache.put(j.Hash, payload, phases)
	if s.inflight[j.Hash] == j {
		delete(s.inflight, j.Hash)
	}
	// The result record lands before the terminal record claiming
	// "done": a crash between the two downgrades the job to failed at
	// replay instead of advertising a result that is not on disk.
	s.journalResultLocked(j.Hash, j.engName, payload, phases)
	s.noteTerminalLocked(j)
	s.mu.Unlock()
}

// routeJob is the fault-isolation boundary around one routing run: a
// panic anywhere inside (router invariants, channel routing, rendering)
// is converted into a *PanicError carrying the message and the captured
// stack, leaving the worker free to serve the next job.
func (s *Server) routeJob(ctx context.Context, j *Job) (payload *Payload, phases []PhaseInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			payload, phases = nil, nil
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
			s.opts.Logf("service: job %s (%s): recovered %v", j.ID, j.ckt.Name, err)
		}
	}()
	if err := faultinject.Fire(faultinject.ServiceRun, j.ckt.Name); err != nil {
		return nil, nil, err
	}
	cfg := j.cfg
	cfg.Progress = j.setProgress
	res, err := j.eng.Route(ctx, j.ckt, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := faultinject.Fire(faultinject.ServicePayload, j.ckt.Name); err != nil {
		return nil, nil, err
	}
	payload, err = buildPayload(res)
	if err != nil {
		return nil, nil, err
	}
	return payload, phaseInfos(res.Phases), nil
}

// finishJob classifies a routing error into Cancelled vs Failed and
// releases the job's dedupe slot.
func (s *Server) finishJob(j *Job, err error) {
	st := Failed
	msg := err.Error()
	var stack string
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		stack = pe.Stack
	case errors.Is(err, context.Canceled):
		st = Cancelled
		msg = "cancelled while running"
	case errors.Is(err, context.DeadlineExceeded):
		msg = "deadline exceeded: " + msg
	}
	if j.finish(st, msg, stack, nil, nil) {
		if st == Cancelled {
			s.metrics.cancelled.Add(1)
		} else {
			s.metrics.failed.Add(1)
		}
	}
	s.jobFinished(j)
}

// buildPayload renders every response form from a finished routing. The
// timing text is the report plus the slack histogram over the
// post-channel-routing lengths.
func buildPayload(res *engine.Result) (*Payload, error) {
	ev, err := experiment.Evaluate(res)
	if err != nil {
		return nil, err
	}
	db, err := routedb.Build(res, ev.Channels)
	if err != nil {
		return nil, err
	}
	// An invalid database must fail the job here, not surface later
	// from a cache or journal replay a consumer already trusted.
	if err := db.Validate(); err != nil {
		return nil, err
	}
	dbJSON, err := routedb.Marshal(db)
	if err != nil {
		return nil, err
	}
	timing := report.TimingReport(res.Ckt, ev.Timing, 3) + "\n" + report.SlackHistogram(res.Ckt, ev.Timing, 8)
	return &Payload{
		RouteDB: dbJSON,
		Timing:  timing,
		SVG:     render.SVG(res, ev.Channels),
		Layout:  render.Layout(res),
		Summary: Summary{
			DelayPs:      ev.DelayPs,
			Violations:   ev.Violations,
			AreaMm2:      ev.Channels.AreaMm2,
			WirelenMm:    ev.Channels.TotalLenUm / 1000,
			Tracks:       res.Dens.TotalTracks(),
			AddedPitches: res.AddedPitches,
			Nets:         len(res.Ckt.Nets),
			Constraints:  len(res.Ckt.Cons),
		},
	}, nil
}
