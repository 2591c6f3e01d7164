package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Progress is the live view of one exploration run: how much of the space
// is done, how fast it is moving, and what every worker is doing right
// now. The runner updates it with lock-free atomics; the status server
// snapshots it on demand. All methods are nil-safe no-ops.
type Progress struct {
	start       atomic.Int64 // run start, unix nanos (0 = no run yet)
	doneAt      atomic.Int64 // run end, unix nanos (0 = still running)
	total       atomic.Int64 // exploration budget (cap), 0 = unknown
	explored    atomic.Int64
	resumed     atomic.Int64
	quarantined atomic.Int64
	violations  atomic.Int64
	dedupSat    atomic.Bool

	fuzzGenerations atomic.Int64
	fuzzCorpus      atomic.Int64
	fuzzNovelty     atomic.Int64 // permille: novelty rate × 1000

	liveEvents   atomic.Int64
	liveHandoffs atomic.Int64

	poolRuns   atomic.Int64
	poolParked atomic.Int64

	mu      sync.Mutex
	workers []atomic.Int64 // per worker: interleaving index in flight, 0 = idle
}

// BeginRun marks the run started with an exploration budget and a worker
// count; it resets per-run state so a registry can observe several runs.
func (p *Progress) BeginRun(total, workers int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.workers = make([]atomic.Int64, workers)
	p.mu.Unlock()
	p.total.Store(int64(total))
	p.explored.Store(0)
	p.resumed.Store(0)
	p.quarantined.Store(0)
	p.violations.Store(0)
	p.dedupSat.Store(false)
	p.fuzzGenerations.Store(0)
	p.fuzzCorpus.Store(0)
	p.fuzzNovelty.Store(0)
	p.liveEvents.Store(0)
	p.liveHandoffs.Store(0)
	p.poolRuns.Store(0)
	p.poolParked.Store(0)
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

// AddExplored counts n newly assigned interleavings.
func (p *Progress) AddExplored(n int64) {
	if p == nil {
		return
	}
	p.explored.Add(n)
}

// SetResumed records interleavings skipped via journal resume.
func (p *Progress) SetResumed(n int64) {
	if p == nil {
		return
	}
	p.resumed.Store(n)
}

// AddQuarantined counts one quarantined interleaving.
func (p *Progress) AddQuarantined() {
	if p == nil {
		return
	}
	p.quarantined.Add(1)
}

// AddViolations counts n assertion failures.
func (p *Progress) AddViolations(n int64) {
	if p == nil {
		return
	}
	p.violations.Add(n)
}

// SetFuzz publishes a ModeFuzz run's corpus state after one generation
// evolved: completed generations, corpus size, and the last generation's
// novelty rate in permille (novel signatures per thousand executed
// children). Zero-valued outside fuzz runs, which keeps the fields out of
// the /progress payload via omitempty.
func (p *Progress) SetFuzz(generations, corpus, noveltyPermille int64) {
	if p == nil {
		return
	}
	p.fuzzGenerations.Store(generations)
	p.fuzzCorpus.Store(corpus)
	p.fuzzNovelty.Store(noveltyPermille)
}

// AddLive counts a live attempt's applied events and the gate hand-offs
// that ordered them; their ratio is how many events one turn of the
// distributed lock buys. Zero and omitted outside live runs.
func (p *Progress) AddLive(events, handoffs int64) {
	if p == nil {
		return
	}
	p.liveEvents.Add(events)
	p.liveHandoffs.Add(handoffs)
}

// AddPoolRun counts one run of consecutive indices carved by a worker.
func (p *Progress) AddPoolRun() {
	if p == nil {
		return
	}
	p.poolRuns.Add(1)
}

// AddParked moves the count of results executed but not yet recorded —
// the pool's reorder window.
func (p *Progress) AddParked(delta int64) {
	if p == nil {
		return
	}
	p.poolParked.Add(delta)
}

// SetDedupSaturated marks the run's dedup set as saturated: beyond this
// point dedup is best-effort and an interleaving may execute twice. The
// flag makes a degraded run visible at /progress without log scraping.
func (p *Progress) SetDedupSaturated() {
	if p == nil {
		return
	}
	p.dedupSat.Store(true)
}

// WorkerSnapshot is one worker's instantaneous state.
type WorkerSnapshot struct {
	ID int `json:"id"`
	// Interleaving is the index in flight (0 when idle).
	Interleaving int64  `json:"interleaving"`
	State        string `json:"state"`
}

// ProgressSnapshot is the JSON shape served at /progress.
type ProgressSnapshot struct {
	Running        bool    `json:"running"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Explored       int64   `json:"explored"`
	Total          int64   `json:"total"`
	Resumed        int64   `json:"resumed"`
	Quarantined    int64   `json:"quarantined"`
	Violations     int64   `json:"violations"`
	// DedupSaturated reports the dedup set hit its cap and degraded to
	// best-effort (mirrors Result.DedupSaturated, live instead of at
	// run end).
	DedupSaturated bool `json:"dedup_saturated"`
	// FuzzGenerations / FuzzCorpusSize / FuzzNoveltyRate mirror a ModeFuzz
	// run's corpus evolution (zero and omitted for every other mode).
	// FuzzNoveltyRate is the last generation's novel-signature fraction.
	FuzzGenerations int64   `json:"fuzz_generations,omitempty"`
	FuzzCorpusSize  int64   `json:"fuzz_corpus_size,omitempty"`
	FuzzNoveltyRate float64 `json:"fuzz_novelty_rate,omitempty"`
	// LiveEvents / LiveHandoffs mirror the live.events and live.handoffs
	// counters of a live run (zero and omitted otherwise).
	LiveEvents   int64 `json:"live_events,omitempty"`
	LiveHandoffs int64 `json:"live_handoffs,omitempty"`
	// PoolRuns / PoolParked mirror runner.pool_runs and runner.pool_parked:
	// runs of consecutive indices carved so far, and results executed but
	// still waiting for a lower index to reach the ledger (zero and omitted
	// where no pool runs, e.g. a distributed worker).
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
	s := ProgressSnapshot{
		Explored:        p.explored.Load(),
		Total:           p.total.Load(),
		Resumed:         p.resumed.Load(),
		Quarantined:     p.quarantined.Load(),
		Violations:      p.violations.Load(),
		DedupSaturated:  p.dedupSat.Load(),
		FuzzGenerations: p.fuzzGenerations.Load(),
		FuzzCorpusSize:  p.fuzzCorpus.Load(),
		FuzzNoveltyRate: float64(p.fuzzNovelty.Load()) / 1000,
		LiveEvents:      p.liveEvents.Load(),
		LiveHandoffs:    p.liveHandoffs.Load(),
		PoolRuns:        p.poolRuns.Load(),
		PoolParked:      p.poolParked.Load(),
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
	p.mu.Lock()
	for w := range p.workers {
		idx := p.workers[w].Load()
		state := "idle"
		if idx > 0 {
			state = "executing"
		}
		s.Workers = append(s.Workers, WorkerSnapshot{ID: w, Interleaving: idx, State: state})
	}
	p.mu.Unlock()
	return s
}
