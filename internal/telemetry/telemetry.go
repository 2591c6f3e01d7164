// Package telemetry is ER-π's engine-wide observability layer: a
// stdlib-only metrics registry (atomic counters, gauges, and fixed-bucket
// histograms with snapshot/merge, exportable via expvar), a span tracer
// that records one span per exploration stage keyed by (interleaving
// index, worker id) into a bounded ring buffer, a Chrome trace_event
// exporter, a live progress tracker, and an HTTP status server.
//
// Telemetry is strictly observational: the engine behaves byte-identically
// with and without a registry attached (a property pinned by the runner's
// determinism tests). Every type in this package is nil-safe — calling any
// method on a nil *Registry, *Counter, *Gauge, *Histogram, or *Tracer is a
// no-op that performs zero allocations, so instrumented hot loops cost
// nothing when telemetry is off.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Max raises the gauge to n if n is larger (a running maximum).
func (g *Gauge) Max(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBounds are the histogram bucket upper bounds used for
// duration metrics: powers of four from 1.02µs to ~4.3s, in nanoseconds.
// Fixed buckets keep Observe allocation-free and make snapshots of equal
// shape mergeable bucket-by-bucket across shards.
var DefaultLatencyBounds = []int64{
	1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20,
	1 << 22, 1 << 24, 1 << 26, 1 << 28, 1 << 30, 1 << 32,
}

// Histogram is a fixed-bucket histogram: len(bounds)+1 atomic buckets (the
// last is overflow), plus count, sum, and max.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	h := &Histogram{bounds: bounds}
	h.buckets = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Count returns how many values were observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra overflow
	// bucket.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Max    int64   `json:"max"`
}

// Mean returns the average observed value (0 with no observations).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket
// counts: the upper bound of the bucket holding the rank-q observation,
// with Max standing in for the unbounded overflow bucket. Resolution is
// therefore the bucket layout's, which is all a latency comparison (e.g.
// blocking vs polling turn waits) needs.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Max
		}
	}
	return s.Max
}

// Merge folds another snapshot into this one. Bucket counts are summed
// when the bound layouts match; otherwise only the scalar aggregates
// (count, sum, max) merge.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	if len(s.Counts) == len(o.Counts) && boundsEqual(s.Bounds, o.Bounds) {
		for i := range s.Counts {
			s.Counts[i] += o.Counts[i]
		}
	}
}

func boundsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Registry names and owns a run's metrics, its span tracer, and its
// progress tracker. Metric registration (Counter/Gauge/Histogram lookups
// by name) takes a mutex and is meant for setup time; the returned handles
// are lock-free and safe for concurrent use on hot paths.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	tracer   *Tracer
	progress *Progress
	// stage pre-resolves one latency histogram per exploration stage so
	// span End never takes the registry lock.
	stage [stageMax + 1]*Histogram
}

// New returns an empty registry whose tracer ring holds up to
// DefaultSpanCapacity spans (older spans are dropped beyond it).
func New() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		tracer:   NewTracer(DefaultSpanCapacity),
	}
	r.progress = &Progress{reg: r}
	for st := Stage(1); st <= stageMax; st++ {
		if stageNames[st] != "" {
			r.stage[st] = r.Histogram("stage." + st.String() + "_ns")
		}
	}
	return r
}

// Counter returns (registering on first use) the named counter. Nil-safe:
// a nil registry returns a nil handle whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram over
// DefaultLatencyBounds.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(DefaultLatencyBounds)
		r.hists[name] = h
	}
	return h
}

// HistogramWithBounds returns (registering on first use) the named
// histogram over the given bucket upper bounds. A histogram keeps the
// bounds it was first registered with; later lookups under the same name
// return the existing histogram regardless of the bounds argument. Use
// this for value distributions that are not latencies (e.g. depths or
// sizes), where DefaultLatencyBounds would lump everything into one
// bucket.
func (r *Registry) HistogramWithBounds(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// value reads the named counter or gauge without registering it (0 when
// nothing has).
func (r *Registry) value(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c.Value()
	}
	return r.gauges[name].Value()
}

// Tracer returns the registry's span tracer (nil for a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Progress returns the registry's live progress tracker (nil for a nil
// registry).
func (r *Registry) Progress() *Progress {
	if r == nil {
		return nil
	}
	return r.progress
}

// Snapshot copies every metric's current value. Safe to call while the
// run is live.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of a registry's metrics, suitable for
// JSON export and cross-shard merging.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Merge folds another snapshot into this one: counters and histogram
// buckets sum, gauges take the maximum (shard-merge semantics).
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]int64)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot)
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		if cur, ok := s.Gauges[name]; !ok || v > cur {
			s.Gauges[name] = v
		}
	}
	for name, h := range o.Histograms {
		cur, ok := s.Histograms[name]
		if !ok {
			// Deep-copy the counts so later merges don't alias o.
			cp := h
			cp.Counts = append([]int64(nil), h.Counts...)
			s.Histograms[name] = cp
			continue
		}
		cur.Merge(h)
		s.Histograms[name] = cur
	}
}

// Summary renders the snapshot for humans: counters and gauges sorted by
// name, histograms as count/mean/max.
func (s Snapshot) Summary() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %-32s %d\n", name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %-32s %d (gauge)\n", name, s.Gauges[name])
	}
	names = names[:0]
	for name := range s.Histograms {
		if s.Histograms[name].Count > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "  %-32s n=%d mean=%s max=%s\n", name, h.Count,
			time.Duration(h.Mean()).Round(time.Microsecond),
			time.Duration(h.Max).Round(time.Microsecond))
	}
	return b.String()
}
