package runner

import (
	"time"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/telemetry"
)

// runTelemetry pre-resolves every metric the engine touches so the hot
// loop never performs a registry lookup. A nil *runTelemetry (telemetry
// off) makes every method a zero-allocation no-op — the invariant pinned
// by TestTelemetryNilPathZeroAllocs and BenchmarkTelemetryOverhead.
//
// Metric names written by the engine:
//
//	runner.explored            interleavings assigned an exploration index
//	runner.dedup_skipped       explorer yields suppressed by the explored set
//	runner.retries             execution attempts beyond the first
//	runner.quarantined         interleavings that failed all retries
//	runner.violations          assertion failures
//	runner.prefix_cache_hits   executions resumed from a cached prefix snapshot
//	runner.prefix_cache_misses cache-enabled executions replayed from genesis
//	runner.prefix_evictions    snapshots evicted by the LRU byte budget
//	runner.subsumed_interleavings  interleavings skipped by state subsumption
//	runner.subsumption_table_bytes bytes held by the subsumption table (gauge)
//	runner.pool_runs           runs of consecutive indices carved by the pool's workers
//	runner.pool_parked         results executed but not yet recorded — the reorder window (gauge)
//	runner.events_executed     events actually replayed
//	runner.events_skipped      events skipped via prefix restore
//	runner.op.<name>           Update/Observe ops of that name applied by replay
//	runner.sync_bytes          sync payload bytes handed to ApplySync
//	runner.snapshot_bytes      bytes currently held by prefix caches (gauge)
//	runner.prefix_delta_bytes  deduplicated state bytes charged by prefix caches (gauge)
//	snapshot.dirty_replicas    replicas re-serialized by canonical snapshots
//	snapshot.bytes_reused      snapshot bytes served from per-replica caches
//	runner.prefix_hit_depth    restored prefix depths (histogram, in events)
//	fuzz.generations           completed ModeFuzz corpus generations
//	fuzz.corpus_size           behaviour-novel interleavings in the corpus (gauge)
//	fuzz.novelty_rate_permille last generation's novel fraction × 1000 (gauge)
//	live.sessions              live gate sessions currently open (gauge)
//	live.events                events applied by the gated schedule
//	live.handoffs              turns taken to apply them (one per run of a replica's consecutive events)
//	journal.fsync_batches      durable journal flushes
//	journal.fsync_keys         appends covered by those flushes
//	fault.armed                faults armed across interleavings
//	fault.fired                fault effects applied (crashes, truncations)
//	stage.<stage>_ns           per-stage latency histograms (see telemetry.Stage)
type runTelemetry struct {
	reg *telemetry.Registry

	explored       *telemetry.Counter
	dedupSkipped   *telemetry.Counter
	retries        *telemetry.Counter
	quarantined    *telemetry.Counter
	violations     *telemetry.Counter
	fsyncBatches   *telemetry.Counter
	fsyncKeys      *telemetry.Counter
	prefixHits     *telemetry.Counter
	prefixMisses   *telemetry.Counter
	prefixEvicted  *telemetry.Counter
	eventsExecuted *telemetry.Counter
	eventsSkipped  *telemetry.Counter
	syncBytes      *telemetry.Counter
	snapshotBytes  *telemetry.Gauge
	prefixDelta    *telemetry.Gauge
	dirtyReplicas  *telemetry.Counter
	bytesReused    *telemetry.Counter
	subsumed       *telemetry.Counter
	subsumeBytes   *telemetry.Gauge
	poolRuns       *telemetry.Counter
	poolParked     *telemetry.Gauge
	hitDepth       *telemetry.Histogram
	liveSessions   *telemetry.Gauge
	liveEvents     *telemetry.Counter
	liveHandoffs   *telemetry.Counter
	fuzzGens       *telemetry.Counter
	fuzzCorpus     *telemetry.Gauge
	fuzzNovelty    *telemetry.Gauge
}

// prefixDepthBounds buckets the prefix-hit-depth histogram by restored
// depth in events (not nanoseconds).
var prefixDepthBounds = []int64{1, 2, 4, 6, 8, 12, 16, 20, 24, 32, 48, 64}

func newRunTelemetry(reg *telemetry.Registry) *runTelemetry {
	if reg == nil {
		return nil
	}
	return &runTelemetry{
		reg:            reg,
		explored:       reg.Counter("runner.explored"),
		dedupSkipped:   reg.Counter("runner.dedup_skipped"),
		retries:        reg.Counter("runner.retries"),
		quarantined:    reg.Counter("runner.quarantined"),
		violations:     reg.Counter("runner.violations"),
		fsyncBatches:   reg.Counter("journal.fsync_batches"),
		fsyncKeys:      reg.Counter("journal.fsync_keys"),
		prefixHits:     reg.Counter("runner.prefix_cache_hits"),
		prefixMisses:   reg.Counter("runner.prefix_cache_misses"),
		prefixEvicted:  reg.Counter("runner.prefix_evictions"),
		eventsExecuted: reg.Counter("runner.events_executed"),
		eventsSkipped:  reg.Counter("runner.events_skipped"),
		syncBytes:      reg.Counter("runner.sync_bytes"),
		snapshotBytes:  reg.Gauge("runner.snapshot_bytes"),
		prefixDelta:    reg.Gauge("runner.prefix_delta_bytes"),
		dirtyReplicas:  reg.Counter("snapshot.dirty_replicas"),
		bytesReused:    reg.Counter("snapshot.bytes_reused"),
		subsumed:       reg.Counter("runner.subsumed_interleavings"),
		subsumeBytes:   reg.Gauge("runner.subsumption_table_bytes"),
		poolRuns:       reg.Counter("runner.pool_runs"),
		poolParked:     reg.Gauge("runner.pool_parked"),
		hitDepth:       reg.HistogramWithBounds("runner.prefix_hit_depth", prefixDepthBounds),
		liveSessions:   reg.Gauge("live.sessions"),
		liveEvents:     reg.Counter("live.events"),
		liveHandoffs:   reg.Counter("live.handoffs"),
		fuzzGens:       reg.Counter("fuzz.generations"),
		fuzzCorpus:     reg.Gauge("fuzz.corpus_size"),
		fuzzNovelty:    reg.Gauge("fuzz.novelty_rate_permille"),
	}
}

// registry exposes the underlying registry for engine paths that record
// their own metrics (nil when telemetry is off).
func (t *runTelemetry) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// onLiveSession tracks the live.sessions gauge: +1 when a live gate
// session opens, -1 when it closes.
func (t *runTelemetry) onLiveSession(delta int64) {
	if t == nil {
		return
	}
	t.liveSessions.Add(delta)
}

// onLiveAttempt adds one gated attempt's applied events and granted
// hand-offs to the counters and to /progress.
func (t *runTelemetry) onLiveAttempt(events, handoffs int) {
	if t == nil {
		return
	}
	t.liveEvents.Add(int64(events))
	t.liveHandoffs.Add(int64(handoffs))
	t.reg.Progress().AddLive(int64(events), int64(handoffs))
}

// span opens a stage span (inert when telemetry is off).
func (t *runTelemetry) span(stage telemetry.Stage, index, worker int) telemetry.SpanStart {
	if t == nil {
		return telemetry.SpanStart{}
	}
	return t.reg.StartSpan(stage, index, worker)
}

// beginRun initializes progress for one exploration.
func (t *runTelemetry) beginRun(total, workers, resumed int) {
	if t == nil {
		return
	}
	p := t.reg.Progress()
	p.BeginRun(total, workers)
	p.SetResumed(int64(resumed))
}

func (t *runTelemetry) endRun() {
	if t == nil {
		return
	}
	t.reg.Progress().EndRun()
}

// onExplored counts one interleaving assigned an exploration index.
func (t *runTelemetry) onExplored() {
	if t == nil {
		return
	}
	t.explored.Inc()
	t.reg.Progress().AddExplored(1)
}

func (t *runTelemetry) onDedupSkipped() {
	if t == nil {
		return
	}
	t.dedupSkipped.Inc()
}

// onDedupSaturated flips the live dedup-saturation flag the first time the
// explored set refuses a key, so /progress shows the degradation while the
// run is still going (Result.DedupSaturated only lands at the end).
func (t *runTelemetry) onDedupSaturated() {
	if t == nil {
		return
	}
	t.reg.Progress().SetDedupSaturated()
}

func (t *runTelemetry) onRetry() {
	if t == nil {
		return
	}
	t.retries.Inc()
}

func (t *runTelemetry) onQuarantined() {
	if t == nil {
		return
	}
	t.quarantined.Inc()
	t.reg.Progress().AddQuarantined()
}

func (t *runTelemetry) onViolations(n int) {
	if t == nil {
		return
	}
	t.violations.Add(int64(n))
	t.reg.Progress().AddViolations(int64(n))
}

// onFuzzGeneration publishes one completed corpus evolution: total
// generations, current corpus size, and the generation's novelty rate
// (stored in permille so the gauge stays integer-valued).
func (t *runTelemetry) onFuzzGeneration(generations, corpus int, rate float64) {
	if t == nil {
		return
	}
	t.fuzzGens.Inc()
	t.fuzzCorpus.Set(int64(corpus))
	permille := int64(rate * 1000)
	t.fuzzNovelty.Set(permille)
	t.reg.Progress().SetFuzz(int64(generations), int64(corpus), permille)
}

// onPoolRun counts one carved run.
func (t *runTelemetry) onPoolRun() {
	if t == nil {
		return
	}
	t.poolRuns.Inc()
	t.reg.Progress().AddPoolRun()
}

// onParked moves the reorder-window gauge: +1 when a worker publishes a
// result, -1 when the ledger takes it.
func (t *runTelemetry) onParked(delta int64) {
	if t == nil {
		return
	}
	t.poolParked.Add(delta)
	t.reg.Progress().AddParked(delta)
}

// onPoolDone takes what a stop discarded off the reorder-window gauge.
func (t *runTelemetry) onPoolDone() {
	if t != nil {
		t.onParked(-t.poolParked.Value())
	}
}

// now is the start of a span for observeSince (zero when telemetry is off).
func (t *runTelemetry) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// onPrefixHit counts one execution resumed from a cached prefix of the
// given depth.
func (t *runTelemetry) onPrefixHit(depth int) {
	if t == nil {
		return
	}
	t.prefixHits.Inc()
	t.hitDepth.Observe(int64(depth))
}

// onPrefixMiss counts one cache-enabled execution that replayed from the
// genesis checkpoint.
func (t *runTelemetry) onPrefixMiss() {
	if t == nil {
		return
	}
	t.prefixMisses.Inc()
}

// onSubsumed counts one interleaving skipped by state subsumption.
func (t *runTelemetry) onSubsumed() {
	if t == nil {
		return
	}
	t.subsumed.Inc()
}

// onSubsumeBytes applies one subsumption-table operation's byte delta
// (insertions positive, evictions and invalidations negative).
func (t *runTelemetry) onSubsumeBytes(delta int64) {
	if t == nil || delta == 0 {
		return
	}
	t.subsumeBytes.Add(delta)
}

// onEvents accounts one execution's replayed vs. prefix-skipped events.
func (t *runTelemetry) onEvents(executed, skipped int) {
	if t == nil {
		return
	}
	t.eventsExecuted.Add(int64(executed))
	t.eventsSkipped.Add(int64(skipped))
}

// onOp counts one applied op under runner.op.<name>; ops is the calling
// executor's name → counter cache. Only the nil check is inlined, so an
// untraced replay pays no call.
func (t *runTelemetry) onOp(ops map[string]*telemetry.Counter, name string) {
	if t != nil {
		t.countOp(ops, name)
	}
}

// countOp resolves each name's counter once per executor, then counts.
func (t *runTelemetry) countOp(ops map[string]*telemetry.Counter, name string) {
	c := ops[name]
	if c == nil {
		c = t.reg.Counter("runner.op." + name)
		ops[name] = c
	}
	c.Inc()
}

// onSyncBytes counts one payload handed to ApplySync.
func (t *runTelemetry) onSyncBytes(n int) {
	if t == nil {
		return
	}
	t.syncBytes.Add(int64(n))
}

// onSnapshot applies one cache operation's byte delta (insertions are
// positive, evictions and invalidations negative) and eviction count.
func (t *runTelemetry) onSnapshot(deltaBytes int64, evicted int) {
	if t == nil {
		return
	}
	t.snapshotBytes.Add(deltaBytes)
	t.prefixEvicted.Add(int64(evicted))
}

// onPrefixDeltaBytes applies one cache operation's change in charged
// deduplicated state bytes (the delta-snapshot footprint).
func (t *runTelemetry) onPrefixDeltaBytes(delta int64) {
	if t == nil || delta == 0 {
		return
	}
	t.prefixDelta.Add(delta)
}

// onSnapshotWork accounts one CanonicalSnapshot call: how many replicas
// were re-serialized and how many payload bytes came from the
// per-replica caches instead.
func (t *runTelemetry) onSnapshotWork(dirty int, reused int64) {
	if t == nil {
		return
	}
	t.dirtyReplicas.Add(int64(dirty))
	t.bytesReused.Add(reused)
}

// setWorker publishes what worker w is executing (0 = idle).
func (t *runTelemetry) setWorker(w, index int) {
	if t == nil {
		return
	}
	t.reg.Progress().SetWorker(w, index)
}

// observeSince records a span measured after the fact, from start (taken
// with now) until this call.
func (t *runTelemetry) observeSince(stage telemetry.Stage, index, worker int, start time.Time) {
	if t == nil {
		return
	}
	t.reg.ObserveSpan(stage, index, worker, start, time.Since(start))
}

// fsyncObserver adapts the checkpoint journal's flush callback into a
// journal-fsync span plus batch counters.
func (t *runTelemetry) fsyncObserver() checkpoint.FsyncObserver {
	if t == nil {
		return nil
	}
	return func(appends int, took time.Duration) {
		t.fsyncBatches.Inc()
		t.fsyncKeys.Add(int64(appends))
		t.reg.ObserveSpan(telemetry.StageJournalFsync, 0, telemetry.CoordinatorWorker,
			time.Now().Add(-took), took)
	}
}

// instrument attaches the fault armed/fired counters to an injector.
func (t *runTelemetry) instrument(inj *fault.Injector) {
	if t == nil || inj == nil {
		return
	}
	inj.SetCounters(t.reg.Counter("fault.armed"), t.reg.Counter("fault.fired"))
}
