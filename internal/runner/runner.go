// Package runner is ER-π's replay engine (paper §4.3–§4.4): it drives a
// scenario's event log through an exploration mode (ER-π pruned, DFS, or
// Rand), executes each interleaving against a fresh replica cluster —
// checkpointing and resetting states between interleavings — and checks
// test assertions after each one, collecting violations.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/fuzz"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Mode names an exploration strategy.
type Mode string

// Exploration modes of the paper's §6.3 evaluation.
const (
	// ModeERPi explores the pruned space (grouped units + filters).
	ModeERPi Mode = "erpi"
	// ModeDFS exhaustively explores all n! event orders depth-first.
	ModeDFS Mode = "dfs"
	// ModeRand explores uniformly random event orders with a dedup cache.
	ModeRand Mode = "rand"
	// ModeFuzz is the coverage-guided greybox mode (the paper's §8 future
	// work): order mutations over a corpus of interleavings that produced
	// novel outcome signatures.
	ModeFuzz Mode = "fuzz"
)

// Scenario is one workload to replay exhaustively.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Log is the recorded event log.
	Log *event.Log
	// NewCluster builds fresh replica states for the scenario.
	NewCluster func() (*replica.Cluster, error)
	// Pruning configures ER-π's pruning algorithms (ModeERPi only).
	Pruning prune.Config
	// Finalize, when set, runs after executing each interleaving and
	// before the assertions — typically an anti-entropy round that
	// completes delivery, so that convergence assertions are free of
	// propagation-lag false positives and flag only genuine
	// order-dependent corruption. Outcome fingerprints are taken after it
	// runs.
	Finalize func(*replica.Cluster) error
}

// AntiEntropy returns a Finalize function performing `rounds` rounds of
// full pairwise state exchange (every ordered replica pair, in sorted
// order). Two rounds give transitive closure for any replica count. A
// sender's payload comes from the cluster's version-keyed cache, so it is
// serialized once per distinct sender state: once per round at most (only
// the receivers change while it is being delivered), and not at all when
// nothing has changed it since its last payload.
func AntiEntropy(rounds int) func(*replica.Cluster) error {
	if rounds <= 0 {
		rounds = 2
	}
	return func(c *replica.Cluster) error {
		nodes := c.Nodes()
		for r := 0; r < rounds; r++ {
			for _, src := range nodes {
				payload, err := c.SyncPayload(src)
				if err != nil {
					return fmt.Errorf("runner: anti-entropy payload %s: %w", src.ID, err)
				}
				for _, dst := range nodes {
					if dst == src {
						continue
					}
					if err := dst.State.ApplySync(payload); err != nil && !errors.Is(err, replica.ErrFailedOp) {
						return fmt.Errorf("runner: anti-entropy %s->%s: %w", src.ID, dst.ID, err)
					}
				}
			}
		}
		return nil
	}
}

// Outcome captures everything observable from executing one interleaving.
type Outcome struct {
	// Index is the 1-based exploration position.
	Index int
	// Interleaving is the executed event order.
	Interleaving interleave.Interleaving
	// Fingerprints are the final per-replica state digests.
	Fingerprints map[event.ReplicaID]string
	// Observations map Observe/Update event IDs to their returned values.
	Observations map[event.ID]string
	// FailedOps lists events rejected by data-type constraints.
	FailedOps []event.ID
	// DroppedSyncs lists synchronizations dropped by an injected network
	// partition (empty in fault-free runs).
	DroppedSyncs []event.ID
	// Converged reports whether all replicas ended with equal fingerprints.
	Converged bool
	// FaultArmed reports that the fault schedule armed at least one fault
	// for this execution. Fault-armed replays bypass the prefix cache (a
	// crash or truncation makes cached prefix states wrong) and, in
	// ModeFuzz, the corpus feedback batch — their signatures reflect the
	// fault schedule, not the order mutation, so they must not steer the
	// corpus.
	FaultArmed bool
}

// Assertion checks a property after each interleaving. Implementations may
// keep state across interleavings (e.g. comparing a replica's final state
// between different orders, the detector for misconceptions #1 and #5),
// under one rule: the verdict on an outcome may depend only on that
// outcome and on the distinct outcomes (by OutcomeSignature) checked
// before it, in the order they were first seen. Under that rule a resume,
// the worker count, either driver and a subsumption skip all give each
// executed index the same verdict: outcomes are checked in index order, a
// skipped interleaving's outcome is one an earlier index produced, and
// Ledger.Resume re-checks the first record of each signature.
type Assertion interface {
	// Name labels the assertion in violation reports.
	Name() string
	// Check returns a non-nil error when the outcome violates the property.
	Check(o *Outcome) error
}

// Violation is one assertion failure.
type Violation struct {
	Index        int
	Interleaving interleave.Interleaving
	Assertion    string
	Err          error
}

func (v Violation) String() string {
	return fmt.Sprintf("interleaving #%d [%s] violates %s: %v",
		v.Index, v.Interleaving.Key(), v.Assertion, v.Err)
}

// Config tunes one exploration run.
type Config struct {
	// Mode selects the exploration strategy (default ModeERPi).
	Mode Mode
	// MaxInterleavings caps exploration (default 10000, the paper's
	// termination threshold). Zero means the default; negative means
	// unbounded. The cap is session-wide: interleavings resumed from a
	// Journal count toward it, so a killed-and-resumed exploration never
	// executes more than MaxInterleavings in total.
	MaxInterleavings int
	// Seed drives ModeRand.
	Seed int64
	// Workers is how many interleavings execute concurrently, each against
	// its own replica cluster built from Scenario.NewCluster (which must
	// therefore be safe for concurrent calls when Workers > 1). Zero or
	// negative means runtime.GOMAXPROCS(0); with 1 the driver executes
	// each interleaving inline on the caller's goroutine. Exploration
	// order, violation sets, and FirstViolation are identical at every
	// worker count — see pool.go for the ordering guarantees. ModeFuzz
	// explores in generations (whole batches of mutated children
	// synthesized up front, corpus evolution once per generation at a pool
	// quiesce barrier), so its corpus trajectory and signature set are
	// also identical at every worker count.
	Workers int
	// LiveWorkers, when > 0, routes exploration through the live replay
	// path (ExecuteLive semantics: one goroutine per replica re-issues its
	// recorded calls, ordered by a TurnGate) with that many interleavings
	// in flight concurrently, each under its own gate session. The driver
	// is the checkpointed path's, so which interleavings run, outcome
	// delivery order, violations, and FirstViolation are identical at
	// every worker count — and identical to a sequential ExecuteLive loop.
	// ModeFuzz clamps the live path to 1 session (live replay cannot batch
	// generations across real gate sessions without changing
	// timing-sensitive semantics). When zero, Workers selects the
	// checkpointed engine.
	LiveWorkers int
	// LiveGates supplies each live worker's gate-session factory (nil
	// defaults to in-process LocalGate sessions). Lock-server-backed runs
	// wrap one proxy.DistPool per worker so every session gets its own
	// epoch-fenced key namespace.
	LiveGates LiveGates
	// StopOnViolation ends exploration at the first assertion failure —
	// the bug-reproduction configuration of §6.3.
	StopOnViolation bool
	// Assertions are checked after every interleaving.
	Assertions []Assertion
	// ConstraintPoll, when set, is called every PollEvery interleavings;
	// returning new constraints triggers re-pruning (ModeERPi only),
	// regenerating the explorer over the merged config.
	ConstraintPoll func() (prune.Config, bool, error)
	// PollEvery is the constraint polling interval in interleavings
	// (default 100).
	PollEvery int
	// OnOutcome, when set, observes every outcome (tracing hook): one at a
	// time, in exploration order, not always on the same goroutine.
	OnOutcome func(*Outcome)
	// Journal, when set, persists the recorded log and one record per
	// recorded interleaving (index, key, signature or error, violations)
	// to the session directory, in index order. A session over a directory
	// that already holds records resumes after them: their interleavings
	// are skipped, their violations, quarantines and FirstViolation are
	// reported again, the assertions re-check the first record of each
	// signature, and indices continue where the records end — so an
	// interrupted exploration, resumed, explores and numbers exactly what
	// an uninterrupted one does (paper §4.2: ER-π persists the
	// interleavings). One recorded for another event log, mode, seed,
	// pruning or fault schedule is refused (Ledger.Resume).
	Journal *checkpoint.Dir
	// InterleavingTimeout bounds each execution attempt of a single
	// interleaving; a timed-out attempt counts as an execution error and
	// goes through the retry/quarantine path (zero = unbounded).
	InterleavingTimeout time.Duration
	// MaxRetries is how many times an errored interleaving is re-executed
	// — after 1 ms, doubling per attempt, with ±50% seeded jitter — before
	// being quarantined. Zero means the default of 1 retry; negative
	// disables retries entirely.
	MaxRetries int
	// Faults, when set, injects the deterministic fault schedule into
	// every execution (replica crashes, partitions, payload truncation;
	// see the fault package). A schedule with no faults is observationally
	// identical to running without one.
	Faults *fault.Schedule
	// FuzzGenerationSize fixes how many mutated children ModeFuzz
	// synthesizes per generation (the unit of corpus evolution and the
	// pool's fuzz quiesce barrier). Zero selects adaptive sizing: the
	// generation starts at fuzz.DefaultGenerationSize and grows when the
	// corpus-novelty rate is low (amortizing the barrier) or shrinks when
	// it is high (mutating from the freshest corpus). Both fixed and
	// adaptive sizing depend only on seed and classification outcomes,
	// never on worker count, so the corpus trajectory stays pinned.
	FuzzGenerationSize int
	// PrefixCacheBytes, when > 0, enables incremental replay: each worker
	// keeps a private bounded stack of mid-run cluster snapshots along the
	// interleaving it last ran, restores the deepest one the next
	// interleaving shares, and replays only the suffix (DESIGN.md §4.9).
	// The value bounds the cached snapshot bytes per worker; a snapshot
	// that would exceed it is not kept. Strictly an
	// accelerator: results are byte-identical with the cache on or off,
	// and fault-carrying interleavings always fall back to a clean
	// genesis replay. Zero disables the cache.
	PrefixCacheBytes int64
	// SubsumptionTable, when > 0, enables DPOR-style state subsumption
	// (DESIGN.md §4.12): at snapshot depths, and after the last event
	// before Finalize, the executor hashes the canonical execution context
	// and skips the rest of any interleaving whose (state-hash,
	// remaining-event-multiset) frontier a lexicographically smaller
	// interleaving already visited — the skipped interleaving's outcome is
	// provably one an executed interleaving produces. A prefix abandoned
	// at a snapshot depth kills its subtree: each executor skips every
	// later interleaving extending it before replay, without resetting,
	// restoring or hashing. The value bounds the
	// visited-frontier table in bytes, shared across all workers of the
	// run. Skipped interleavings still consume exploration indices
	// (MaxInterleavings, journal) and are counted in
	// Result.Subsumed; they produce no Outcome, so the
	// deduplicated outcome-signature set is invariant but per-index
	// results are not. Only the lexicographic enumerators honor it
	// (ModeERPi, ModeDFS) — Rand and Fuzz enumeration cannot guarantee a
	// witness runs, so the flag is ignored there, as it is on the live
	// path, and in a run with scheduled faults. Zero disables subsumption.
	SubsumptionTable int64
	// Telemetry, when set, receives the run's metrics, live progress, and
	// per-stage spans (see the telemetry package). Strictly observational:
	// a run with telemetry attached explores the same interleavings, in
	// the same order, with the same results as one without, and a nil
	// registry costs nothing on the hot path.
	Telemetry *telemetry.Registry
	// ForensicDir, when set, captures a forensic bundle for each violating
	// interleaving (up to DefaultMaxForensicBundles) by re-executing it on
	// a fresh cluster with per-step state capture, and writes the bundles
	// there as JSON for `erpi explain` (DESIGN.md §4.13). Capture is
	// post-hoc re-execution only: the exploration hot path is untouched, so
	// results and determinism pins are identical with forensics on or off.
	// Empty disables capture.
	ForensicDir string
}

// DefaultMaxInterleavings is the paper's exploration cap.
const DefaultMaxInterleavings = 10000

// defaultPrefixSnapshotEvery is the prefix cache's snapshot insertion
// stride in events — a snapshot every K events, plus at the divergence
// depth against the previous interleaving and at the explorer's pivot —
// and the subsumption check stride without a cache. Lexicographic
// neighbors differ in their last ~e≈2.7 positions on average, so a stride
// of 4 keeps a usable restore point near the tail of every prefix without
// snapshotting after every event.
const defaultPrefixSnapshotEvery = 4

// Result summarizes one exploration run.
type Result struct {
	Scenario string
	Mode     Mode
	// Explored counts the indices this session recorded. Ledger.Record
	// counts each result it is fed, for every driver, so Explored moves as
	// results reach the ledger in index order and never counts an index
	// without a record — one assigned but interrupted before its result,
	// or past a StopOnViolation stop. Resumed records are not in it.
	Explored   int
	Violations []Violation
	// Exhausted reports that the space ran out before the cap.
	Exhausted bool
	// Crashed is never set; it remains for callers that still read it.
	// A run ends at its cap, its space, a stop or its context, never on a
	// resource budget.
	Crashed bool
	// Duration is the wall-clock exploration time.
	Duration time.Duration
	// RandShuffles counts total shuffle attempts in ModeRand (wasted work
	// included).
	RandShuffles int
	// FirstViolation is the 1-based index of the first violation (0 if
	// none) — the "interleavings to reproduce the bug" metric of Fig. 8a.
	FirstViolation int
	// Resumed counts the records an earlier session left in the Journal
	// (0 without one): interleavings this session skips, whose results —
	// violations, quarantines, subsumptions — are reported here again.
	Resumed int
	// Subsumed counts interleavings skipped by state subsumption
	// (Config.SubsumptionTable). They are included in Explored — an index
	// was assigned and journaled before the skip — but produced
	// no Outcome. Which interleavings are subsumed can vary with worker
	// count and timing; the deduplicated outcome-signature set does not.
	Subsumed int
	// Quarantined lists interleavings whose execution kept failing after
	// retries. Exploration continues past them, so a faulted run always
	// yields partial results instead of aborting at the first error.
	Quarantined []ExecError
	// Interrupted reports that the run stopped early because the context
	// was cancelled or its deadline passed; the Result is the partial
	// progress up to that point.
	Interrupted bool
	// InterruptErr holds the context error when Interrupted.
	InterruptErr error
	// Bundles lists the forensic bundle files written under
	// Config.ForensicDir, one per captured violating interleaving (empty
	// when forensics are off or nothing violated).
	Bundles []string
	// Fuzz holds the corpus statistics of a ModeFuzz run (nil for every
	// other mode).
	Fuzz *FuzzStats
}

// FuzzStats summarizes a ModeFuzz run's corpus evolution. Every field is
// deterministic for a given seed and generation size — identical at every
// worker count — so the whole struct is part of the parity pin.
type FuzzStats struct {
	// Generations is how many generations completed (evolved the corpus).
	Generations int
	// CorpusSize is the final corpus size (behaviour-novel interleavings).
	CorpusSize int
	// Coverage is the number of distinct behaviour signatures observed.
	Coverage int
	// NoveltyRate is the last completed generation's novel-signature
	// fraction (drives adaptive generation sizing).
	NoveltyRate float64
	// TrajectoryDigest folds every corpus admission (generation, key,
	// signature, in admission order) into a hex digest — equal digests
	// mean byte-identical corpus evolution.
	TrajectoryDigest string
	// Exhausted reports the fuzzer declared the reachable mutation space
	// exhausted (mirrored into Result.Exhausted by the driver).
	Exhausted bool
}

// ExecError records one quarantined interleaving: an event order whose
// execution kept failing after Config.MaxRetries retries.
type ExecError struct {
	// Index is the 1-based exploration position.
	Index int
	// Interleaving is the failing event order.
	Interleaving interleave.Interleaving
	// Attempts counts the execution attempts made (1 + retries).
	Attempts int
	// Err is the final attempt's error.
	Err error
}

func (e ExecError) String() string {
	return fmt.Sprintf("interleaving #%d [%s] quarantined after %d attempts: %v",
		e.Index, e.Interleaving.Key(), e.Attempts, e.Err)
}

// Run explores a scenario under the config.
func Run(s Scenario, cfg Config) (*Result, error) {
	return RunContext(context.Background(), s, cfg)
}

// RunContext explores a scenario under the config, honoring ctx: when the
// context is cancelled or its deadline passes the run stops promptly and
// returns the partial Result with Interrupted set, rather than an
// error — exploration progress is never discarded.
func RunContext(ctx context.Context, s Scenario, cfg Config) (*Result, error) {
	return explore(ctx, s, cfg, defaultRunLen, defaultPrefixSnapshotEvery)
}

// explore is RunContext under a given run-length rule (pool.runLen) and
// snapshot stride (pool.every), which tests vary: results do not depend on
// where runs are cut, and pivot snapshots land without the stride.
func explore(ctx context.Context, s Scenario, cfg Config, runLen func(left, workers int) int, every int) (*Result, error) {
	start := time.Now()
	if err := validate(s, &cfg); err != nil {
		return nil, err
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 100
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	live := cfg.LiveWorkers > 0
	if live {
		workers = cfg.LiveWorkers
	}
	if cfg.Mode == ModeFuzz && live {
		// Checkpointed fuzzing parallelizes by generation (pool.go's fuzz
		// barrier), but live replay still clamps to one session: live
		// sessions cannot batch generations without changing the
		// timing-sensitive gate semantics the live path exists to test.
		workers = 1
	}

	tel := newRunTelemetry(cfg.Telemetry)
	pruning := s.Pruning
	pruneSpan := tel.span(telemetry.StagePrune, 0, telemetry.CoordinatorWorker)
	explorer, err := newExplorer(s, cfg, pruning)
	pruneSpan.End()
	if err != nil {
		return nil, err
	}

	res := &Result{Scenario: s.Name, Mode: cfg.Mode}
	ledger := newLedger(s, cfg, explorer, res, tel)
	if cfg.Journal != nil {
		// The ledger installed this run's sync observer; the caller's later
		// syncs of the same Dir are not this run's.
		defer cfg.Journal.SetFsyncObserver(nil)
		if _, err := ledger.Resume(); err != nil {
			return nil, err
		}
	}
	// An earlier session polled constraints after every boundary index it
	// recorded, and what it merged is not in the records: this one polls
	// before carving, if anything is left to carve.
	repoll := res.Resumed >= cfg.PollEvery
	// The cap is session-wide: what the record log already holds counts
	// toward it, and this run only gets the remainder. Numbering continues
	// after the last record.
	tel.progress.BeginRun(max(0, ledger.max-res.Resumed), workers, res.Resumed)
	defer tel.progress.EndRun()

	p := &pool{
		ctx:     ctx,
		s:       s,
		cfg:     cfg,
		res:     res,
		ledger:  ledger,
		pruning: pruning,
		workers: workers,
		runLen:  runLen,
		every:   every,
		tel:     tel,
	}
	if repoll && ledger.carved != nil && !ledger.Done() {
		p.quiesce = true
		p.since = tel.now()
	}
	if !live {
		// One subsumption table is shared by every worker of the run. The
		// live path never consults one: live replay re-issues real calls
		// and cannot abandon an interleaving mid-flight.
		p.sub = newSubsumption(cfg)
		if p.completions, err = newCompletions(s, cfg, pruning, p.sub); err != nil {
			return nil, err
		}
	}
	if err := p.run(live); err != nil {
		return nil, err
	}
	if ge, ok := explorer.(generationExplorer); ok {
		res.Fuzz = &FuzzStats{
			Generations:      ge.Generations(),
			CorpusSize:       ge.CorpusSize(),
			Coverage:         ge.Coverage(),
			NoveltyRate:      ge.NoveltyRate(),
			TrajectoryDigest: ge.TrajectoryDigest(),
			Exhausted:        ge.Exhausted(),
		}
	}
	if r, ok := explorer.(*interleave.RandExplorer); ok {
		res.RandShuffles = r.Shuffles()
	}
	if cfg.Journal != nil {
		if err := cfg.Journal.Flush(); err != nil {
			return nil, err
		}
	}
	res.Duration = time.Since(start)
	return res, nil
}

// NewExplorer builds the exploration iterator the engine would use for
// this scenario and config (mode, seed, pruning). The distributed
// coordinator enumerates through it exactly as the in-process engines do,
// which is what keeps range carving deterministic across restarts.
func NewExplorer(s Scenario, cfg Config) (interleave.Explorer, error) {
	if cfg.Mode == "" {
		cfg.Mode = ModeERPi
	}
	return newExplorer(s, cfg, s.Pruning)
}

// ExecuteOnce runs a single given interleaving of the scenario (fresh
// cluster, execute, finalize) and returns its outcome. Used to compute the
// reported manifestation of a bug benchmark from its trigger order.
func ExecuteOnce(s Scenario, il interleave.Interleaving) (*Outcome, error) {
	x, err := bareExecutor(s, nil)
	if err != nil {
		return nil, err
	}
	return x.once(il, 1)
}

// bareExecutor builds an executor for re-executing chosen interleavings
// outside an exploration — ExecuteOnce, forensic capture and
// Ledger.Resume's re-check: no prefix cache, no subsumption table and no
// telemetry, under the given fault schedule.
func bareExecutor(s Scenario, faults *fault.Schedule) (*Executor, error) {
	return newExecutor(s, Config{Faults: faults}, 0, telemetryOff, nil, false, defaultPrefixSnapshotEvery)
}

// once executes il at the exploration index, which keys fault arming, in
// one attempt.
func (x *Executor) once(il interleave.Interleaving, index int) (*Outcome, error) {
	return x.attempt(context.Background(), workItem{index: index, il: il, pivot: -1})
}

// newSubsumption builds the run's shared subsumption table, or nil when
// disabled. Only the lexicographic enumerators get one: the soundness
// argument (DESIGN.md §4.12) needs every lexicographically smaller
// completion of a visited frontier to be enumerated, which ModeRand's
// sampling and ModeFuzz's corpus mutation cannot guarantee. It also needs
// that completion to run fault-free, which no run with scheduled faults
// guarantees: an armed completion reports its faulted outcome in place of
// the one a skip relies on, and an armed interleaving's context is not a
// function of its prefix.
func newSubsumption(cfg Config) *subsumeTable {
	if cfg.SubsumptionTable <= 0 || !subsumableMode(cfg.Mode) || cfg.Faults != nil && len(cfg.Faults.Faults) > 0 {
		return nil
	}
	return newSubsumeTable(cfg.SubsumptionTable)
}

func subsumableMode(m Mode) bool { return m == ModeERPi || m == ModeDFS }

// newCompletions builds the completion classifier of a ModeERPi run's
// subsumption table under pruning: replica-specific pruning keeps an
// interleaving or not by a trailing block that can begin inside a
// prefix, so a witness stands for another prefix only where the pruned
// space keeps the witness's prefix with the other's suffix (DESIGN.md
// §4.12). Nil without a table, in ModeDFS, and when pruning tests no
// replica.
func newCompletions(s Scenario, cfg Config, pruning prune.Config, sub *subsumeTable) (*prune.Completions, error) {
	if sub == nil || cfg.Mode != ModeERPi {
		return nil, nil
	}
	c, err := prune.NewCompletions(s.Log, pruning)
	if err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}
	return c, nil
}

// pivotOf asks the explorer where its next yield will diverge from the
// one just pulled (-1 when the explorer cannot predict), so the prefix
// cache can snapshot exactly where the next lookup lands.
func pivotOf(e interleave.Explorer) int {
	if p, ok := e.(interleave.PivotExplorer); ok {
		return p.NextPivot()
	}
	return -1
}

// generationExplorer is the engine's contract with the generation-batched
// fuzzer (DESIGN.md §4.14): the Ledger classifies children by
// interleaving key — so results may come from any number of workers — and
// the corpus evolves exactly once per generation, at a point where every
// emitted child is classified (the pool's fuzz quiesce barrier).
type generationExplorer interface {
	interleave.Explorer
	// GenerationEnd reports the synthesis buffer is drained: evolve (after
	// classification completes) before pulling again.
	GenerationEnd() bool
	// Pending counts emitted-but-unclassified children.
	Pending() int
	// ReportOutcome / ReportDropped classify one emitted child by key.
	ReportOutcome(key, signature string)
	ReportDropped(key string)
	// Evolve folds the classified generation into the corpus (idempotent
	// outside a fully-emitted generation).
	Evolve()
	Generations() int
	CorpusSize() int
	Coverage() int
	NoveltyRate() float64
	TrajectoryDigest() string
	Exhausted() bool
}

// OutcomeSignature digests an outcome into the engine's stable behaviour
// signature: fingerprints, observations, failed ops, and dropped syncs,
// order-insensitive where execution order is nondeterministic. Equal
// behaviours collapse to equal strings, which is what benchmarks and
// determinism pins compare across engines.
func OutcomeSignature(o *Outcome) string { return behaviorSignature(o) }

// behaviorSignature digests an outcome into a stable string: equal
// behaviours collapse, so coverage-guided exploration can detect novelty.
// The string is sized exactly up front and built in one buffer — the
// coordinator's aggregator computes one per result, serially.
func behaviorSignature(o *Outcome) string {
	n := 0
	reps := make([]event.ReplicaID, 0, len(o.Fingerprints))
	for r, fp := range o.Fingerprints {
		reps = append(reps, r)
		n += len(r) + len(fp) + len("=;")
	}
	slices.Sort(reps)
	obs := make([]event.ID, 0, len(o.Observations))
	for id, v := range o.Observations {
		obs = append(obs, id)
		n += decimalLen(id) + len(v) + len("o=;")
	}
	slices.Sort(obs)
	failed := slices.Clone(o.FailedOps)
	slices.Sort(failed)
	dropped := slices.Clone(o.DroppedSyncs)
	slices.Sort(dropped)
	for _, id := range failed {
		n += decimalLen(id) + len("f;")
	}
	for _, id := range dropped {
		n += decimalLen(id) + len("d;")
	}

	var b strings.Builder
	b.Grow(n)
	var num [20]byte
	for _, r := range reps {
		b.WriteString(string(r))
		b.WriteByte('=')
		b.WriteString(o.Fingerprints[r])
		b.WriteByte(';')
	}
	for _, id := range obs {
		b.WriteByte('o')
		b.Write(strconv.AppendInt(num[:0], int64(id), 10))
		b.WriteByte('=')
		b.WriteString(o.Observations[id])
		b.WriteByte(';')
	}
	for _, id := range failed {
		b.WriteByte('f')
		b.Write(strconv.AppendInt(num[:0], int64(id), 10))
		b.WriteByte(';')
	}
	for _, id := range dropped {
		b.WriteByte('d')
		b.Write(strconv.AppendInt(num[:0], int64(id), 10))
		b.WriteByte(';')
	}
	return b.String()
}

// decimalLen is len(strconv.Itoa(int(id))).
func decimalLen(id event.ID) int {
	n := 1
	if id < 0 {
		n++
	}
	for v := id; v >= 10 || v <= -10; v /= 10 {
		n++
	}
	return n
}

func newExplorer(s Scenario, cfg Config, pruning prune.Config) (interleave.Explorer, error) {
	switch cfg.Mode {
	case ModeERPi:
		return prune.NewExplorer(s.Log, pruning)
	case ModeDFS:
		return interleave.NewDFS(interleave.NewSpace(s.Log)), nil
	case ModeRand:
		return interleave.NewRand(interleave.NewSpace(s.Log), cfg.Seed), nil
	case ModeFuzz:
		// The fuzzer mutates over the grouped unit space so that causal
		// pairs stay intact, like ER-π's own exploration.
		space, err := prune.GroupedSpace(s.Log, pruning.Grouping)
		if err != nil {
			return nil, err
		}
		f := fuzz.New(space, cfg.Seed)
		f.SetGenerationSize(cfg.FuzzGenerationSize)
		return f, nil
	default:
		return nil, fmt.Errorf("runner: unknown mode %q", cfg.Mode)
	}
}
