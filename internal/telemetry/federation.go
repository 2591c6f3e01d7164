package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Fleet-wide telemetry federation (DESIGN.md §4.13): worker processes
// periodically report a cumulative metrics snapshot and the span delta
// recorded since their previous report. The coordinator folds the reports
// into one fleet view — counters and histogram buckets sum across workers,
// per-worker throughput and lag are broken out on /progress, and /trace
// renders a merged Chrome trace with one process lane per worker,
// re-based onto the coordinator's clock.
//
// Reports carry *cumulative* metric snapshots, not increments: the fold
// keeps only the latest snapshot per worker, so a re-sent or replayed
// report (worker reconnects redial with fresh sessions) can never
// double-count. Only the span stream is a delta, and span loss on
// reconnect is acceptable — spans are a bounded diagnostic ring, not an
// accounting surface.

// WorkerReport is one worker process's telemetry report, as carried by
// the coordinator protocol's telemetry message.
type WorkerReport struct {
	// Worker is the reporting worker's protocol name.
	Worker string `json:"worker"`
	// EpochUnixNanos is the worker tracer's epoch as unix nanoseconds;
	// span Start offsets in the report are relative to it.
	EpochUnixNanos int64 `json:"epoch_unix_nanos"`
	// Metrics is the worker registry's cumulative snapshot.
	Metrics Snapshot `json:"metrics"`
	// Spans are the spans recorded since the worker's previous report.
	Spans []Span `json:"spans,omitempty"`
}

// DefaultFederationSpanCap bounds the spans retained per worker feed.
const DefaultFederationSpanCap = 1 << 13

// workerFeed is one worker's folded state.
type workerFeed struct {
	report    WorkerReport // latest cumulative metrics (Spans unused)
	firstSeen time.Time
	lastSeen  time.Time
	spans     []Span // accumulated span deltas, oldest dropped beyond the cap
	dropped   int
}

// Federation folds worker telemetry reports into a fleet-wide view on
// top of a local (coordinator-side) registry. All methods are safe for
// concurrent use; a nil *Federation is inert.
type Federation struct {
	reg     *Registry // local registry (may be nil)
	spanCap int

	mu     sync.Mutex
	feeds  map[string]*workerFeed
	leases func() map[string]int // optional: live lease counts by worker name
}

// NewFederation builds a federation over the local registry (nil is
// allowed: the fleet view is then purely the workers' reports).
func NewFederation(reg *Registry) *Federation {
	return &Federation{reg: reg, spanCap: DefaultFederationSpanCap, feeds: make(map[string]*workerFeed)}
}

// SetLeaseSource installs the callback supplying live leased-range counts
// per worker name (the coordinator's ledger view), folded into the fleet
// progress breakdown. The callback must not call back into the
// Federation.
func (f *Federation) SetLeaseSource(fn func() map[string]int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.leases = fn
	f.mu.Unlock()
}

// Report folds one worker report: the cumulative metrics replace the
// worker's previous snapshot, the span delta appends to its bounded
// span history.
func (f *Federation) Report(rep WorkerReport) {
	if f == nil || rep.Worker == "" {
		return
	}
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	feed, ok := f.feeds[rep.Worker]
	if !ok {
		feed = &workerFeed{firstSeen: now}
		f.feeds[rep.Worker] = feed
	}
	feed.spans = append(feed.spans, rep.Spans...)
	if over := len(feed.spans) - f.spanCap; over > 0 {
		feed.dropped += over
		feed.spans = append(feed.spans[:0], feed.spans[over:]...)
	}
	rep.Spans = nil
	feed.report = rep
	feed.lastSeen = now
}

// Snapshot returns the fleet-wide metrics view: the local registry's
// snapshot merged with every worker's latest report (counters and
// histogram buckets sum, gauges take the maximum).
func (f *Federation) Snapshot() Snapshot {
	if f == nil {
		return Snapshot{}
	}
	s := f.reg.Snapshot()
	if s.Counters == nil {
		s = Snapshot{
			Counters:   make(map[string]int64),
			Gauges:     make(map[string]int64),
			Histograms: make(map[string]HistogramSnapshot),
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, name := range f.sortedWorkersLocked() {
		s.Merge(f.feeds[name].report.Metrics)
	}
	return s
}

// FleetWorkerProgress is one worker's row in the fleet progress view.
type FleetWorkerProgress struct {
	Worker string `json:"worker"`
	// Executed counts the executions in the worker's cumulative report
	// (its stage.execute_ns count), including any the coordinator's
	// ledger never records, such as a range fenced away or past a stop.
	// PerSecond spreads it over the time between the worker's first and
	// latest report.
	Executed  int64   `json:"executed"`
	PerSecond float64 `json:"per_second"`
	// Leases is the coordinator ledger's count of ranges currently leased
	// to this worker (0 without a lease source).
	Leases int `json:"leases"`
	// LagSeconds is how long ago the worker last reported; a worker whose
	// lag grows past its heartbeat interval is stalled or gone.
	LagSeconds float64 `json:"lag_seconds"`
	// SpansRetained/SpansDropped account the worker's span feed.
	SpansRetained int `json:"spans_retained"`
	SpansDropped  int `json:"spans_dropped,omitempty"`
}

// FleetProgress is the JSON shape the coordinator's /progress serves.
// Explored, Violations and Quarantined are the local registry's
// runner.explored, runner.violations and runner.quarantined, which the
// coordinator's ledger counts as it records results (workers run no
// ledger), so Explored is the jobs' Explored. PerSecond sums the rows'
// execution rates.
type FleetProgress struct {
	Explored    int64                 `json:"explored"`
	PerSecond   float64               `json:"per_second"`
	Violations  int64                 `json:"violations"`
	Quarantined int64                 `json:"quarantined"`
	Workers     []FleetWorkerProgress `json:"workers"`
}

// Progress returns the fleet progress view.
func (f *Federation) Progress() FleetProgress {
	if f == nil {
		return FleetProgress{}
	}
	out := FleetProgress{
		Explored:    f.reg.value("runner.explored"),
		Violations:  f.reg.value("runner.violations"),
		Quarantined: f.reg.value("runner.quarantined"),
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var leases map[string]int
	if f.leases != nil {
		leases = f.leases()
	}
	now := time.Now()
	for _, name := range f.sortedWorkersLocked() {
		feed := f.feeds[name]
		row := FleetWorkerProgress{
			Worker:        name,
			Executed:      feed.report.Metrics.Histograms["stage.execute_ns"].Count,
			Leases:        leases[name],
			LagSeconds:    now.Sub(feed.lastSeen).Seconds(),
			SpansRetained: len(feed.spans),
			SpansDropped:  feed.dropped,
		}
		if d := feed.lastSeen.Sub(feed.firstSeen).Seconds(); d > 0 {
			row.PerSecond = float64(row.Executed) / d
		}
		out.PerSecond += row.PerSecond
		out.Workers = append(out.Workers, row)
	}
	return out
}

// WriteTrace exports the merged fleet trace as Chrome trace_event JSON:
// the coordinator's own spans on pid 1 and each worker process on its own
// pid (sorted by name), with every worker's span offsets re-based from
// its tracer epoch onto the coordinator's.
func (f *Federation) WriteTrace(w io.Writer) error {
	if f == nil {
		return WriteTrace(w, nil)
	}
	file := traceFile{DisplayTimeUnit: "ms"}
	f.mu.Lock()
	workers := f.sortedWorkersLocked()
	// Re-base everything onto the earliest known epoch so no lane starts
	// at a negative timestamp.
	base := int64(0)
	if f.reg != nil {
		base = f.reg.Tracer().Epoch().UnixNano()
	}
	for _, name := range workers {
		if e := f.feeds[name].report.EpochUnixNanos; base == 0 || (e != 0 && e < base) {
			base = e
		}
	}
	local := f.reg.Tracer().Spans()
	localShift := int64(0)
	if f.reg != nil {
		localShift = f.reg.Tracer().Epoch().UnixNano() - base
	}
	appendSpanEvents(&file, local, 1, localShift)
	appendLaneMetadata(&file, local, 1, "coordinator")
	for i, name := range workers {
		feed := f.feeds[name]
		pid := 2 + i
		shift := feed.report.EpochUnixNanos - base
		appendSpanEvents(&file, feed.spans, pid, shift)
		appendLaneMetadata(&file, feed.spans, pid, "worker "+name)
	}
	f.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

func (f *Federation) sortedWorkersLocked() []string {
	names := make([]string, 0, len(f.feeds))
	for name := range f.feeds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
