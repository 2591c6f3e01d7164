package telemetry

import (
	"sync"
	"time"
)

// Stage names one phase of the exploration pipeline. Spans are recorded
// per stage, keyed by (interleaving index, worker id).
type Stage uint8

// Exploration stages.
const (
	// StageGenerate is the explorer advancing to the next interleaving.
	StageGenerate Stage = iota + 1
	// StagePrune is (re)building the pruned explorer, including
	// ConstraintPoll re-pruning.
	StagePrune
	// Stage 3 was a per-yield dedup check that no longer exists; the
	// stages after it keep their numbers, which bundles and wire reports
	// carry.
	_
	// StageDispatch is a pool worker obtaining its next run of consecutive
	// interleavings, on the worker's lane: from asking for work to holding
	// the run — lock wait, barrier and carve-ahead (back-pressure) waits,
	// and the carve itself.
	StageDispatch
	// StageExecute is one interleaving's replay, retries included.
	StageExecute
	// StageFaultInject is arming the fault schedule for one interleaving.
	StageFaultInject
	// StageCheckpointReset is restoring the cluster to its pristine
	// checkpoint before an execution attempt.
	StageCheckpointReset
	// StageAssert is running the assertion set over one outcome.
	StageAssert
	// StageJournalFsync is one durable flush of the progress journal.
	StageJournalFsync
	// StageQuiesce is the pool draining in-flight work at a ConstraintPoll
	// or fuzz-generation barrier (the visible bubble in the pipeline).
	StageQuiesce
	// StageRestorePrefix is restoring the cluster from a prefix-cache
	// snapshot (or falling back to the genesis checkpoint on a miss)
	// before a suffix execution.
	StageRestorePrefix
	// StageLiveSetup is a live session coming up: minting the epoch's gate
	// namespace and one gate per replica.
	StageLiveSetup
	// StageLease is the distributed coordinator granting one interleaving
	// range to a worker (carving fresh work or re-issuing an orphan).
	StageLease
	// StageRangeCommit is the coordinator accepting one range's results:
	// fencing checks, in-order aggregation, and journal/result persistence.
	StageRangeCommit
	// StageFuzzEvolve is the fuzzer folding one fully-classified
	// generation into its corpus at the fuzz quiesce barrier (the
	// per-generation bubble in a ModeFuzz pipeline).
	StageFuzzEvolve

	stageMax = StageFuzzEvolve
)

var stageNames = [...]string{
	StageGenerate:        "generate",
	StagePrune:           "prune",
	StageDispatch:        "dispatch",
	StageExecute:         "execute",
	StageFaultInject:     "fault-inject",
	StageCheckpointReset: "checkpoint-reset",
	StageAssert:          "assert",
	StageJournalFsync:    "journal-fsync",
	StageQuiesce:         "quiesce",
	StageRestorePrefix:   "restore-prefix",
	StageLiveSetup:       "live-setup",
	StageLease:           "lease",
	StageRangeCommit:     "range-commit",
	StageFuzzEvolve:      "fuzz-evolve",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return "unknown"
}

// CoordinatorWorker is the worker id spans use for coordinator-side work
// (generation, dispatch, assertions).
const CoordinatorWorker = -1

// Span is one recorded stage execution. The JSON tags make spans
// directly serializable — they travel in the coordinator federation's
// wire reports and in forensic bundles.
type Span struct {
	// Stage is the pipeline phase.
	Stage Stage `json:"stage"`
	// Index is the 1-based interleaving index (0 for run-level work).
	Index int32 `json:"index"`
	// Worker is the executing worker id (CoordinatorWorker for the
	// coordinator).
	Worker int32 `json:"worker"`
	// Start is nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	// Dur is the span length in nanoseconds.
	Dur int64 `json:"dur_ns"`
}

// DefaultSpanCapacity bounds the tracer ring buffer (1<<15 spans ≈ 1 MiB).
const DefaultSpanCapacity = 1 << 15

// Tracer records spans into a bounded ring buffer: beyond the capacity the
// oldest spans are overwritten, so memory stays constant over arbitrarily
// long runs while the tail — the part a trace viewer usually needs — is
// always intact. Safe for concurrent use.
type Tracer struct {
	epoch    time.Time
	capacity int

	mu   sync.Mutex
	ring []Span
	n    int // total spans ever recorded
}

// NewTracer returns a tracer holding up to capacity spans (<= 0 selects
// DefaultSpanCapacity). The ring is allocated lazily on first record.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Tracer{epoch: time.Now(), capacity: capacity}
}

// Epoch is the tracer's time origin: Span.Start offsets are relative to it.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// now returns nanoseconds since the epoch on the monotonic clock.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *Tracer) record(sp Span) {
	t.mu.Lock()
	if t.ring == nil {
		t.ring = make([]Span, t.capacity)
	}
	t.ring[t.n%t.capacity] = sp
	t.n++
	t.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n <= t.capacity {
		return append([]Span(nil), t.ring[:t.n]...)
	}
	out := make([]Span, 0, t.capacity)
	at := t.n % t.capacity
	out = append(out, t.ring[at:]...)
	out = append(out, t.ring[:at]...)
	return out
}

// SpansSince returns the retained spans recorded after the first `since`
// spans ever recorded (oldest first) together with the new total recorded
// count. Feeding the returned total back as the next call's `since` yields
// exactly the spans recorded in between — the delta primitive federation
// reports are built from. Spans the ring already overwrote are silently
// skipped; a `since` beyond the current total returns an empty delta.
func (t *Tracer) SpansSince(since int) ([]Span, int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.n
	first := since
	if first < 0 {
		first = 0
	}
	if retained := total - t.capacity; first < retained {
		first = retained
	}
	if first >= total {
		return nil, total
	}
	out := make([]Span, 0, total-first)
	for i := first; i < total; i++ {
		out = append(out, t.ring[i%t.capacity])
	}
	return out, total
}

// Dropped reports how many spans the ring has overwritten.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n <= t.capacity {
		return 0
	}
	return t.n - t.capacity
}

// SpanStart is an in-progress span token returned by StartSpan. It is a
// value type: starting and ending a span performs no heap allocation, and
// the zero SpanStart (from a nil registry) is an inert no-op.
type SpanStart struct {
	tracer *Tracer
	hist   *Histogram
	start  int64
	index  int32
	worker int32
	stage  Stage
}

// StartSpan opens a span for one stage execution. End records it into the
// ring buffer and the per-stage latency histogram.
func (r *Registry) StartSpan(stage Stage, index, worker int) SpanStart {
	if r == nil {
		return SpanStart{}
	}
	return SpanStart{
		tracer: r.tracer,
		hist:   r.stage[stage],
		start:  r.tracer.now(),
		index:  int32(index),
		worker: int32(worker),
		stage:  stage,
	}
}

// End closes the span.
func (s SpanStart) End() {
	if s.tracer == nil {
		return
	}
	dur := s.tracer.now() - s.start
	s.hist.Observe(dur)
	s.tracer.record(Span{Stage: s.stage, Index: s.index, Worker: s.worker, Start: s.start, Dur: dur})
}

// ObserveSpan records an already-measured span (used when the duration is
// known only after the fact, e.g. a journal fsync batch timed inside the
// checkpoint layer).
func (r *Registry) ObserveSpan(stage Stage, index, worker int, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.stage[stage].ObserveDuration(dur)
	off := start.Sub(r.tracer.epoch).Nanoseconds()
	if off < 0 {
		off = 0
	}
	r.tracer.record(Span{Stage: stage, Index: int32(index), Worker: int32(worker), Start: off, Dur: int64(dur)})
}
