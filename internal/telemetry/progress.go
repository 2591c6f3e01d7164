package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Progress is the live view of one exploration run: how much of the space
// is done, how fast it is moving, and what every worker is doing right
// now. It holds only what no metric does — the run's start and end, its
// budget, the resumed count and the per-worker slots; everything it
// counts it reads from its registry on Snapshot. All methods are nil-safe
// no-ops.
type Progress struct {
	reg *Registry

	start   atomic.Int64 // run start, unix nanos (0 = no run yet)
	doneAt  atomic.Int64 // run end, unix nanos (0 = still running)
	total   atomic.Int64 // exploration budget (cap), 0 = unknown
	resumed atomic.Int64

	mu      sync.Mutex
	base    map[string]int64 // registry counters at BeginRun
	workers []atomic.Int64   // per worker: interleaving index in flight, 0 = idle
}

// BeginRun marks the run started with an exploration budget, a worker
// count and the interleavings resumed from a record log. The registry's
// counters read from here on as their growth since this call, so a
// registry can observe several runs.
func (p *Progress) BeginRun(total, workers, resumed int) {
	if p == nil {
		return
	}
	base := p.reg.Snapshot().Counters
	p.mu.Lock()
	p.base = base
	p.workers = make([]atomic.Int64, workers)
	p.mu.Unlock()
	p.total.Store(int64(total))
	p.resumed.Store(int64(resumed))
	p.doneAt.Store(0)
	p.start.Store(time.Now().UnixNano())
}

// EndRun marks the run finished, freezing the rate and ETA.
func (p *Progress) EndRun() {
	if p == nil {
		return
	}
	p.doneAt.Store(time.Now().UnixNano())
}

// SetWorker records what worker w is executing (0 = idle).
func (p *Progress) SetWorker(w, index int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if w >= 0 && w < len(p.workers) {
		p.workers[w].Store(int64(index))
	}
	p.mu.Unlock()
}

// WorkerSnapshot is one worker's instantaneous state.
type WorkerSnapshot struct {
	ID int `json:"id"`
	// Interleaving is the index in flight (0 when idle).
	Interleaving int64  `json:"interleaving"`
	State        string `json:"state"`
}

// ProgressSnapshot is the JSON shape served at /progress. A count read
// from a registry counter is that counter's growth since BeginRun.
type ProgressSnapshot struct {
	Running        bool    `json:"running"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Explored       int64   `json:"explored"` // runner.explored
	Total          int64   `json:"total"`
	Resumed        int64   `json:"resumed"`
	Quarantined    int64   `json:"quarantined"` // runner.quarantined
	Violations     int64   `json:"violations"`  // runner.violations
	// FuzzGenerations / FuzzCorpusSize / FuzzNoveltyRate are a ModeFuzz
	// run's fuzz.generations, fuzz.corpus_size and
	// fuzz.novelty_rate_permille / 1000 (zero and omitted for every other
	// mode, and until the run's first generation completes).
	FuzzGenerations int64   `json:"fuzz_generations,omitempty"`
	FuzzCorpusSize  int64   `json:"fuzz_corpus_size,omitempty"`
	FuzzNoveltyRate float64 `json:"fuzz_novelty_rate,omitempty"`
	// LiveEvents / LiveHandoffs are live.events and live.handoffs (zero
	// and omitted outside live runs).
	LiveEvents   int64 `json:"live_events,omitempty"`
	LiveHandoffs int64 `json:"live_handoffs,omitempty"`
	// PoolRuns / PoolParked are runner.pool_runs and the runner.pool_parked
	// gauge: runs of consecutive indices carved so far, and results
	// executed but still waiting for a lower index to reach the ledger
	// (zero and omitted where no pool runs, e.g. a distributed worker).
	PoolRuns   int64            `json:"pool_runs,omitempty"`
	PoolParked int64            `json:"pool_parked,omitempty"`
	PerSecond  float64          `json:"per_second"`
	ETASeconds float64          `json:"eta_seconds"`
	Workers    []WorkerSnapshot `json:"workers"`
}

// Snapshot captures the current progress. Rate is explored/elapsed; ETA
// extrapolates the remaining budget at that rate (0 when unknowable).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	since := func(name string) int64 { return p.reg.value(name) - p.base[name] }
	s := ProgressSnapshot{
		Explored:        since("runner.explored"),
		Total:           p.total.Load(),
		Resumed:         p.resumed.Load(),
		Quarantined:     since("runner.quarantined"),
		Violations:      since("runner.violations"),
		FuzzGenerations: since("fuzz.generations"),
		LiveEvents:      since("live.events"),
		LiveHandoffs:    since("live.handoffs"),
		PoolRuns:        since("runner.pool_runs"),
		PoolParked:      p.reg.value("runner.pool_parked"),
	}
	if s.FuzzGenerations > 0 {
		// The corpus gauges hold an earlier run's values until this one
		// evolves its first generation.
		s.FuzzCorpusSize = p.reg.value("fuzz.corpus_size")
		s.FuzzNoveltyRate = float64(p.reg.value("fuzz.novelty_rate_permille")) / 1000
	}
	start := p.start.Load()
	if start == 0 {
		return s
	}
	end := p.doneAt.Load()
	s.Running = end == 0
	if end == 0 {
		end = time.Now().UnixNano()
	}
	elapsed := time.Duration(end - start)
	s.ElapsedSeconds = elapsed.Seconds()
	if elapsed > 0 {
		s.PerSecond = float64(s.Explored) / elapsed.Seconds()
	}
	if s.Running && s.PerSecond > 0 && s.Total > s.Explored {
		s.ETASeconds = float64(s.Total-s.Explored) / s.PerSecond
	}
	for w := range p.workers {
		idx := p.workers[w].Load()
		state := "idle"
		if idx > 0 {
			state = "executing"
		}
		s.Workers = append(s.Workers, WorkerSnapshot{ID: w, Interleaving: idx, State: state})
	}
	return s
}
