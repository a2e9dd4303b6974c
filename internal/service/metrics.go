package service

import (
	"encoding/json"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBucketsMs are the upper bounds of the per-phase latency
// histogram, milliseconds; the implicit last bucket is +Inf.
var latencyBucketsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram (cumulative on export,
// like Prometheus). counts has one slot per bound plus the +Inf overflow.
type histogram struct {
	counts [14]uint64 // len(latencyBucketsMs) + 1
	sumMs  float64
	count  uint64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMs) && ms > latencyBucketsMs[i] {
		i++
	}
	h.counts[i]++
	h.sumMs += ms
	h.count++
}

// histogramJSON is the exported form of one histogram.
type histogramJSON struct {
	Count   uint64            `json:"count"`
	SumMs   float64           `json:"sum_ms"`
	Buckets map[string]uint64 `json:"buckets"` // "le_<bound>" → cumulative count
}

func (h *histogram) export() histogramJSON {
	out := histogramJSON{Count: h.count, SumMs: h.sumMs, Buckets: make(map[string]uint64)}
	var cum uint64
	for i, b := range latencyBucketsMs {
		cum += h.counts[i]
		out.Buckets[leLabel(b)] = cum
	}
	cum += h.counts[len(latencyBucketsMs)]
	out.Buckets["le_inf"] = cum
	return out
}

func leLabel(bound float64) string {
	b, _ := json.Marshal(bound)
	return "le_" + string(b) + "ms"
}

// metrics is the service-wide counter set, exposed at /metrics as
// expvar-style JSON. Counters are atomics; the histograms share one
// mutex (they are touched once per finished job, not per request).
type metrics struct {
	accepted  atomic.Int64 // jobs newly enqueued (excludes cache hits and dedups)
	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	deduped   atomic.Int64 // submissions coalesced onto an in-flight job
	cacheHits atomic.Int64
	cacheMiss atomic.Int64
	panics    atomic.Int64 // routing panics recovered by the worker boundary
	evicted   atomic.Int64 // terminal jobs evicted by the retention policy
	rejected  atomic.Int64 // submissions refused by a size cap (HTTP 413)
	// rejectedBadEngine counts submissions naming an unregistered engine,
	// refused at admission (HTTP 400).
	rejectedBadEngine atomic.Int64

	netsScored atomic.Int64 // per-net candidate scores recomputed
	netsReused atomic.Int64 // per-net scores served from the selection cache

	journalReplayed atomic.Int64 // journal records applied at startup replay

	mu      sync.Mutex
	phases  map[string]*histogram // per-phase routing latency
	selects map[string]*histogram // per-phase time inside selectEdge
	timings map[string]*histogram // per-phase time inside Timing.Flush
	// enginePhases is the per-engine view of the phase latencies, keyed
	// "engine/phase"; jobsByEngine counts completed jobs per engine.
	enginePhases map[string]*histogram
	jobsByEngine map[string]int64
	jobs         histogram // end-to-end job latency
}

func newMetrics() *metrics {
	return &metrics{
		phases:       make(map[string]*histogram),
		selects:      make(map[string]*histogram),
		timings:      make(map[string]*histogram),
		enginePhases: make(map[string]*histogram),
		jobsByEngine: make(map[string]int64),
	}
}

func (m *metrics) observeJob(engineName string, total time.Duration, phases []PhaseInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs.observe(total)
	if engineName != "" {
		m.jobsByEngine[engineName]++
	}
	for _, p := range phases {
		if engineName != "" {
			key := engineName + "/" + p.Name
			eh := m.enginePhases[key]
			if eh == nil {
				eh = &histogram{}
				m.enginePhases[key] = eh
			}
			eh.observe(time.Duration(p.DurationMs * float64(time.Millisecond)))
		}
		h := m.phases[p.Name]
		if h == nil {
			h = &histogram{}
			m.phases[p.Name] = h
		}
		h.observe(time.Duration(p.DurationMs * float64(time.Millisecond)))
		if p.SelectCalls > 0 {
			sh := m.selects[p.Name]
			if sh == nil {
				sh = &histogram{}
				m.selects[p.Name] = sh
			}
			sh.observe(time.Duration(p.SelectMs * float64(time.Millisecond)))
			m.netsScored.Add(int64(p.ScoredNets))
			m.netsReused.Add(int64(p.ReusedNets))
		}
		if p.TimingFlushes > 0 {
			th := m.timings[p.Name]
			if th == nil {
				th = &histogram{}
				m.timings[p.Name] = th
			}
			th.observe(time.Duration(p.TimingMs * float64(time.Millisecond)))
		}
	}
}

// RuntimeMemStats is the Go-runtime memory view of the /metrics document:
// enough to watch the zero-allocation routing discipline from outside the
// process — a routing service whose heap_objects climbs with every job, or
// whose GC pauses grow under load, is allocating on the hot path again.
type RuntimeMemStats struct {
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"` // live heap, bytes
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`   // heap address space held from the OS
	HeapObjects    uint64  `json:"heap_objects"`     // live object count
	TotalAllocMB   uint64  `json:"total_alloc_mb"`   // cumulative allocation volume, MiB
	NumGC          uint32  `json:"num_gc"`           // completed GC cycles
	LastGCPauseNs  uint64  `json:"last_gc_pause_ns"` // most recent stop-the-world pause
	GCCPUPercent   float64 `json:"gc_cpu_percent"`   // share of CPU spent in GC since start
}

func readRuntimeMemStats() RuntimeMemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := RuntimeMemStats{
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		HeapObjects:    ms.HeapObjects,
		TotalAllocMB:   ms.TotalAlloc >> 20,
		NumGC:          ms.NumGC,
	}
	if ms.NumGC > 0 {
		out.LastGCPauseNs = ms.PauseNs[(ms.NumGC+255)%256]
	}
	out.GCCPUPercent = ms.GCCPUFraction * 100
	return out
}

// MetricsSnapshot is the /metrics document.
type MetricsSnapshot struct {
	JobsAccepted      int64                    `json:"jobs_accepted"`
	JobsCompleted     int64                    `json:"jobs_completed"`
	JobsFailed        int64                    `json:"jobs_failed"`
	JobsCancelled     int64                    `json:"jobs_cancelled"`
	JobsDeduped       int64                    `json:"jobs_deduped"`
	CacheHits         int64                    `json:"cache_hits"`
	CacheMisses       int64                    `json:"cache_misses"`
	CacheEntries      int                      `json:"cache_entries"`
	QueueDepth        int                      `json:"queue_depth"`
	Workers           int                      `json:"workers"`
	PanicsRecov       int64                    `json:"panics_recovered"`
	JobsRetained      int                      `json:"jobs_retained"`
	JobsEvicted       int64                    `json:"jobs_evicted"`
	RejectedSize      int64                    `json:"rejected_too_large"`
	RejectedBadEngine int64                    `json:"rejected_bad_engine"`
	NetsScored        int64                    `json:"nets_scored"`
	NetsReused        int64                    `json:"nets_reused"`
	JournalRecs       int64                    `json:"journal_records"`
	JournalReplay     int64                    `json:"journal_replayed"`
	JournalBytes      int64                    `json:"journal_bytes"`
	Runtime           RuntimeMemStats          `json:"runtime_mem"`
	JobLatency        histogramJSON            `json:"job_latency_ms"`
	PhaseLatency      map[string]histogramJSON `json:"phase_latency_ms"`
	SelectLatency     map[string]histogramJSON `json:"select_latency_ms"`
	TimingLatency     map[string]histogramJSON `json:"timing_latency_ms"`
	// EnginePhaseLatency is PhaseLatency split per engine, keyed
	// "engine/phase"; JobsByEngine counts completed jobs per engine.
	EnginePhaseLatency map[string]histogramJSON `json:"engine_phase_latency_ms"`
	JobsByEngine       map[string]int64         `json:"jobs_by_engine"`
}

func (m *metrics) snapshot(queueDepth, workers, cacheEntries, retained int, journalRecs, journalBytes int64) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := MetricsSnapshot{
		JobsAccepted:       m.accepted.Load(),
		JobsCompleted:      m.completed.Load(),
		JobsFailed:         m.failed.Load(),
		JobsCancelled:      m.cancelled.Load(),
		JobsDeduped:        m.deduped.Load(),
		CacheHits:          m.cacheHits.Load(),
		CacheMisses:        m.cacheMiss.Load(),
		CacheEntries:       cacheEntries,
		QueueDepth:         queueDepth,
		Workers:            workers,
		PanicsRecov:        m.panics.Load(),
		JobsRetained:       retained,
		JobsEvicted:        m.evicted.Load(),
		RejectedSize:       m.rejected.Load(),
		RejectedBadEngine:  m.rejectedBadEngine.Load(),
		NetsScored:         m.netsScored.Load(),
		NetsReused:         m.netsReused.Load(),
		JournalRecs:        journalRecs,
		JournalReplay:      m.journalReplayed.Load(),
		JournalBytes:       journalBytes,
		Runtime:            readRuntimeMemStats(),
		JobLatency:         m.jobs.export(),
		PhaseLatency:       make(map[string]histogramJSON, len(m.phases)),
		SelectLatency:      make(map[string]histogramJSON, len(m.selects)),
		TimingLatency:      make(map[string]histogramJSON, len(m.timings)),
		EnginePhaseLatency: make(map[string]histogramJSON, len(m.enginePhases)),
		JobsByEngine:       make(map[string]int64, len(m.jobsByEngine)),
	}
	for _, name := range sortedKeys(m.phases) {
		out.PhaseLatency[name] = m.phases[name].export()
	}
	for _, name := range sortedKeys(m.selects) {
		out.SelectLatency[name] = m.selects[name].export()
	}
	for _, name := range sortedKeys(m.timings) {
		out.TimingLatency[name] = m.timings[name].export()
	}
	for _, name := range sortedKeys(m.enginePhases) {
		out.EnginePhaseLatency[name] = m.enginePhases[name].export()
	}
	for name, n := range m.jobsByEngine {
		out.JobsByEngine[name] = n
	}
	return out
}

// sortedKeys returns a histogram map's keys in sorted order so the
// snapshot is assembled in a stable sequence regardless of map layout.
func sortedKeys(m map[string]*histogram) []string {
	keys := make([]string, 0, len(m))
	for name := range m {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	return keys
}
