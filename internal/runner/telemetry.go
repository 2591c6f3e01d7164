package runner

import (
	"time"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/telemetry"
)

// runTelemetry holds every handle the engine touches, resolved once so the
// hot loop never performs a registry lookup; call sites use the handles
// directly. With telemetry off every handle is nil and every call on one a
// zero-allocation no-op — the invariant pinned by
// TestTelemetryNilPathZeroAllocs and BenchmarkTelemetryOverhead. /progress
// reads the same counters (telemetry.Progress.Snapshot), so nothing here
// is written twice. The run counts — runner.explored,
// runner.subsumed_interleavings, runner.quarantined and runner.violations
// — have one writer, Ledger.Record, next to the Result fields they
// mirror; the rest count a layer's work as it happens.
//
// Metric names written by the engine:
//
//	runner.explored            indices this session recorded (Result.Explored)
//	runner.dedup_skipped       explorer yields skipped: a resumed record, or carved before a re-prune
//	runner.retries             execution attempts beyond the first
//	runner.quarantined         interleavings that failed all retries
//	runner.violations          assertion failures
//	runner.prefix_cache_hits   executions resumed from a cached prefix snapshot
//	runner.prefix_cache_misses cache-enabled executions replayed from genesis
//	runner.prefix_evictions    snapshots the prefix cache refused over its byte budget
//	runner.subsumed_interleavings  recorded indices skipped by state subsumption (Result.Subsumed)
//	runner.subsumed_dead_prefix    executions skipped before replay under a dead prefix
//	runner.subsumption_table_bytes bytes held by the subsumption table (gauge)
//	runner.pool_runs           runs of consecutive indices carved by the pool's workers
//	runner.pool_parked         results executed but not yet recorded — the reorder window (gauge)
//	runner.events_executed     events actually replayed
//	runner.events_skipped      events skipped via prefix restore
//	runner.op.<name>           Update/Observe ops of that name applied by replay
//	runner.sync_bytes          sync payload bytes handed to ApplySync
//	runner.snapshot_bytes      bytes currently held by prefix caches (gauge)
//	snapshot.dirty_replicas    replicas re-serialized by canonical snapshots
//	snapshot.bytes_reused      snapshot bytes served from per-replica caches
//	runner.prefix_hit_depth    restored prefix depths (histogram, in events)
//	fuzz.generations           completed ModeFuzz corpus generations
//	fuzz.corpus_size           behaviour-novel interleavings in the corpus (gauge)
//	fuzz.novelty_rate_permille last generation's novel fraction × 1000 (gauge)
//	live.sessions              live gate sessions currently open (gauge)
//	live.events                events applied by the gated schedule
//	live.handoffs              turns taken to apply them (one per run of a replica's consecutive events)
//	journal.fsync_batches      record-log syncs (the durability clock's, Flush's, Close's)
//	journal.fsync_keys         appends covered by those syncs
//	fault.armed                faults armed across interleavings
//	fault.fired                fault effects applied (crashes, truncations)
//	stage.<stage>_ns           per-stage latency histograms (see telemetry.Stage)
type runTelemetry struct {
	reg      *telemetry.Registry
	progress *telemetry.Progress

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
	dirtyReplicas  *telemetry.Counter
	bytesReused    *telemetry.Counter
	subsumed       *telemetry.Counter
	deadPrefix     *telemetry.Counter
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

// telemetryOff is the facade of a run without a registry, shared because
// nothing ever writes to it.
var telemetryOff = &runTelemetry{}

func newRunTelemetry(reg *telemetry.Registry) *runTelemetry {
	if reg == nil {
		return telemetryOff
	}
	return &runTelemetry{
		reg:            reg,
		progress:       reg.Progress(),
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
		dirtyReplicas:  reg.Counter("snapshot.dirty_replicas"),
		bytesReused:    reg.Counter("snapshot.bytes_reused"),
		subsumed:       reg.Counter("runner.subsumed_interleavings"),
		deadPrefix:     reg.Counter("runner.subsumed_dead_prefix"),
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

// span opens a stage span. Telemetry off, it is an inlined nil check that
// returns the inert zero span.
func (t *runTelemetry) span(stage telemetry.Stage, index, worker int) telemetry.SpanStart {
	if t.reg == nil {
		return telemetry.SpanStart{}
	}
	return t.reg.StartSpan(stage, index, worker)
}

// now is the start of a span for observeSince (zero when telemetry is off).
func (t *runTelemetry) now() time.Time {
	if t.reg == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeSince records a span measured after the fact, from start (taken
// with now) until this call.
func (t *runTelemetry) observeSince(stage telemetry.Stage, index, worker int, start time.Time) {
	if t.reg == nil {
		return
	}
	t.reg.ObserveSpan(stage, index, worker, start, time.Since(start))
}

// onFuzzGeneration publishes one completed corpus evolution: the current
// corpus size and the generation's novelty rate (stored in permille so the
// gauge stays integer-valued).
func (t *runTelemetry) onFuzzGeneration(corpus int, rate float64) {
	t.fuzzGens.Inc()
	t.fuzzCorpus.Set(int64(corpus))
	t.fuzzNovelty.Set(int64(rate * 1000))
}

// onPrefixHit counts one execution resumed from a cached prefix of the
// given depth.
func (t *runTelemetry) onPrefixHit(depth int) {
	t.prefixHits.Inc()
	t.hitDepth.Observe(int64(depth))
}

// onEvents accounts one execution's replayed vs. prefix-skipped events —
// skipped means via prefix restore. A dead-prefix skip never calls it: it
// replays and restores nothing, so it adds to neither counter.
func (t *runTelemetry) onEvents(executed, skipped int) {
	t.eventsExecuted.Add(int64(executed))
	t.eventsSkipped.Add(int64(skipped))
}

// onOp counts one applied op under runner.op.<name>; ops is the calling
// executor's name → counter cache. Only the nil check is inlined, so an
// untraced replay pays no call.
func (t *runTelemetry) onOp(ops map[string]*telemetry.Counter, name string) {
	if t.reg != nil {
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

// fsyncObserver adapts the checkpoint journal's sync callback into a
// journal-fsync span plus batch counters.
func (t *runTelemetry) fsyncObserver() checkpoint.FsyncObserver {
	if t.reg == nil {
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
	if t.reg == nil || inj == nil {
		return
	}
	inj.SetCounters(t.reg.Counter("fault.armed"), t.reg.Counter("fault.fired"))
}
