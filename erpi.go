// Package erpi is the public API of ER-π, a middleware framework for
// integration testing of replicated data systems by exhaustive interleaving
// replay (Mondal & Tilevich, MIDDLEWARE 2025).
//
// Applications integrate a replicated data library (RDL) through the
// replica.State contract, mark the workload segment with Session.Start and
// Session.End — the paper's higher-order functions — and ER-π:
//
//  1. records the RDL calls in the segment as distributed events,
//  2. generates the exhaustive set of their interleavings,
//  3. prunes the space with four algorithms (event grouping,
//     replica-specific, event independence, failed ops),
//  4. replays every surviving interleaving against checkpointed replica
//     states, and
//  5. checks built-in and custom test assertions after each one.
//
// Quick start:
//
//	sess, _ := erpi.NewSession(newCluster,
//	    erpi.WithGroups([][]erpi.EventID{{0, 1}}),
//	    erpi.WithTestedReplicas("M"))
//	rec := sess.Start()
//	rec.Update("A", "set.add", "otb")
//	rec.Sync("A", "B")
//	// ... the workload under test ...
//	result, _ := sess.End(erpi.Convergence{})
//	for _, v := range result.Violations { fmt.Println(v) }
package erpi

import (
	"context"
	"fmt"
	"time"

	"github.com/er-pi/erpi/internal/check"
	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/constraints"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Core type aliases: the public API surfaces the internal engine types
// directly so downstream code composes with the same vocabulary as the
// paper.
type (
	// ReplicaID names a replica.
	ReplicaID = event.ReplicaID
	// EventID identifies a recorded event.
	EventID = event.ID
	// Event is one distributed event.
	Event = event.Event
	// Op is an RDL operation.
	Op = replica.Op
	// State is the contract an application's replicated state implements.
	State = replica.State
	// Cluster is a set of replicas under test.
	Cluster = replica.Cluster
	// Recorder captures a workload as events (returned by Session.Start).
	Recorder = runner.Recorder
	// Scenario is a recorded workload plus pruning config.
	Scenario = runner.Scenario
	// RunConfig tunes one exploration run.
	RunConfig = runner.Config
	// Result summarizes an exploration.
	Result = runner.Result
	// Outcome is one interleaving's observable result.
	Outcome = runner.Outcome
	// Violation is one assertion failure.
	Violation = runner.Violation
	// Assertion checks a property after each interleaving.
	Assertion = runner.Assertion
	// Mode selects the exploration strategy.
	Mode = runner.Mode
	// PruneConfig aggregates pruning inputs.
	PruneConfig = prune.Config
	// IndependenceSpec declares mutually independent events (Algorithm 3).
	IndependenceSpec = prune.IndependenceSpec
	// FailedOpsSpec declares doomed-op constraints (Algorithm 4).
	FailedOpsSpec = prune.FailedOpsSpec
	// ExecError is one quarantined interleaving: its index, schedule, and
	// the error that survived all retries.
	ExecError = runner.ExecError
	// LiveSession is one live execution attempt's gate namespace: Gate
	// mints the TurnGate for a replica, Close releases whatever the
	// session still holds.
	LiveSession = runner.LiveSession
	// LiveSessionFactory mints the fenced gate sessions for one live
	// worker.
	LiveSessionFactory = runner.SessionFactory
	// LiveGates builds the per-worker session factories for the live pool.
	LiveGates = runner.LiveGates
)

// Fault injection (chaos replay): a seeded FaultSchedule makes the engine
// crash replicas, partition links, truncate sync payloads, and take the
// lock server down at scheduled points — deterministically, so a chaos run
// reproduces byte-for-byte from its seed.
type (
	// FaultSchedule is a seeded set of faults for a run.
	FaultSchedule = fault.Schedule
	// Fault is one scheduled fault.
	Fault = fault.Fault
	// FaultKind discriminates fault types.
	FaultKind = fault.Kind
)

// Fault kinds.
const (
	// FaultCrashReplica crashes a replica at an event position, rolling it
	// back to its durable checkpoint, and keeps it down for Duration events.
	FaultCrashReplica = fault.CrashReplica
	// FaultPartition severs a replica link for a window.
	FaultPartition = fault.Partition
	// FaultTruncatePayload cuts a sync payload to KeepBytes in flight.
	FaultTruncatePayload = fault.TruncatePayload
)

// ErrReplicaDown marks an event that executed against a crashed replica.
var ErrReplicaDown = fault.ErrReplicaDown

// Exploration modes.
const (
	// ModeERPi replays the pruned interleaving space.
	ModeERPi = runner.ModeERPi
	// ModeDFS is the exhaustive depth-first baseline.
	ModeDFS = runner.ModeDFS
	// ModeRand is the random-shuffle baseline.
	ModeRand = runner.ModeRand
	// ModeFuzz is the coverage-guided greybox mode (the paper's §8 future
	// work): order mutations over a corpus of interleavings that produced
	// novel behaviour.
	ModeFuzz = runner.ModeFuzz
)

// Built-in test library (paper §4.4 and the misconception detectors of
// §6.2).
type (
	// Convergence requires all replicas to agree after each interleaving.
	Convergence = check.Convergence
	// StateStable requires one replica's state to be identical across
	// interleavings (misconceptions #1 and #5).
	StateStable = check.StateStable
	// ObservationEquals pins an observed value.
	ObservationEquals = check.ObservationEquals
	// ObservationStable requires an observation to be order-independent
	// (misconception #2).
	ObservationStable = check.ObservationStable
	// NoDuplicates detects duplicated collection items (misconception #3).
	NoDuplicates = check.NoDuplicates
	// NoClash detects colliding generated IDs (misconception #4).
	NoClash = check.NoClash
	// NoFailedOps forbids constraint-rejected operations.
	NoFailedOps = check.NoFailedOps
	// Custom wraps a user predicate (paper §4.5 custom assertions).
	Custom = check.Custom
)

// ErrFailedOp marks an operation rejected by a data type's constraints.
var ErrFailedOp = replica.ErrFailedOp

// Telemetry is the engine-wide metrics registry: atomic counters, gauges,
// latency histograms, live run progress, and per-stage spans exportable as
// a Chrome trace (load it in about://tracing or https://ui.perfetto.dev).
// Attach one with WithTelemetry; it is strictly observational — exploration
// results are identical with or without it.
type Telemetry = telemetry.Registry

// NewTelemetry returns an empty telemetry registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// StatusServer serves a run's live observability surface over HTTP: a JSON
// progress snapshot at /progress (explored/total, rate, ETA, per-worker
// state), the registry at /metrics, a Chrome trace at /trace, expvar at
// /debug/vars, and net/http/pprof under /debug/pprof/.
type StatusServer = telemetry.StatusServer

// WithTelemetry attaches a metrics registry to the session's exploration:
// the engine records counters, stage-latency histograms, spans, and live
// progress into it. Its resource figures — the paper's §8 profiling
// extension — are runner.op.<name> (RDL operations applied) and
// runner.sync_bytes (sync payload bytes delivered).
func WithTelemetry(reg *Telemetry) Option {
	return func(s *Session) { s.cfg.Telemetry = reg }
}

// WithStatusServer starts an HTTP status server on addr (host:port; port 0
// picks a free port) when the session starts, serving the session's
// telemetry registry — the one given to WithTelemetry, or a fresh registry
// otherwise. The server outlives End so the final state stays inspectable;
// close it via Session.Status().Close(). Listen errors surface from Start.
func WithStatusServer(addr string) Option {
	return func(s *Session) { s.statusAddr = addr }
}

// NewCluster builds a replica cluster from per-replica states.
func NewCluster(states map[ReplicaID]State) *Cluster {
	return replica.NewCluster(states)
}

// Run explores a scenario under a config (the scenario-level API; Session
// provides the Start/End sugar on top).
func Run(s Scenario, cfg RunConfig) (*Result, error) {
	return runner.Run(s, cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled or its
// deadline passes, exploration stops promptly and returns the partial
// Result accumulated so far (Result.Interrupted is set) instead of an
// error — progress is never discarded.
func RunContext(ctx context.Context, s Scenario, cfg RunConfig) (*Result, error) {
	return runner.RunContext(ctx, s, cfg)
}

// Option configures a Session.
type Option func(*Session)

// WithMode selects the exploration strategy (default ModeERPi).
func WithMode(m Mode) Option { return func(s *Session) { s.cfg.Mode = m } }

// WithMaxInterleavings caps exploration (default 10000, the paper's
// threshold).
func WithMaxInterleavings(n int) Option {
	return func(s *Session) { s.cfg.MaxInterleavings = n }
}

// WithSeed seeds ModeRand.
func WithSeed(seed int64) Option { return func(s *Session) { s.cfg.Seed = seed } }

// WithFuzzGeneration fixes how many mutated children ModeFuzz synthesizes
// per generation — the unit of corpus evolution and the pool's fuzz
// quiesce barrier. Larger generations keep more workers busy between
// barriers; smaller ones mutate from a fresher corpus. Zero or negative
// restores the default adaptive sizing, which reacts to the corpus-novelty
// rate. Either way the corpus trajectory depends only on the seed and the
// observed behaviour signatures, never on worker count.
func WithFuzzGeneration(n int) Option {
	return func(s *Session) { s.cfg.FuzzGenerationSize = n }
}

// WithWorkers sets how many interleavings replay concurrently, each
// against its own cluster from the session's factory (which must then be
// safe for concurrent calls; a worker builds its cluster when it first
// gets work, so a short exploration builds fewer than n). Zero or negative
// means one worker per available CPU; with 1 the exploration driver
// replays each interleaving inline on the calling goroutine. Exploration
// results are identical at every worker count — only wall-clock time
// changes. Workers take runs of up to 16 consecutive interleavings, so a
// second worker pays from replays of a few microseconds up, as long as
// there is an idle CPU for it; OnOutcome and assertions still see one
// outcome at a time, in exploration order, but not always from the same
// goroutine.
func WithWorkers(n int) Option {
	return func(s *Session) { s.cfg.Workers = n }
}

// WithLiveWorkers routes exploration through the live replay path
// (ReplayLive semantics: one goroutine per replica, ordered by turn
// gates) with n interleavings in flight concurrently, each under its own
// fenced gate session. Results are identical to the checkpointed engine
// and to a sequential live loop at every worker count; only wall-clock
// time changes. Combine with WithLiveGates for lock-server-ordered
// sessions; without it each session gets an in-process gate.
func WithLiveWorkers(n int) Option {
	return func(s *Session) { s.cfg.LiveWorkers = n }
}

// WithLiveGates supplies the per-worker gate-session factories used by
// WithLiveWorkers — e.g. one proxy.DistPool per worker for
// lock-server-ordered replay with epoch-fenced sess/<worker>/<epoch> key
// namespaces.
func WithLiveGates(gates LiveGates) Option {
	return func(s *Session) { s.cfg.LiveGates = gates }
}

// WithPrefixCache enables incremental replay: each worker keeps a
// private bounded stack of mid-run cluster snapshots along the
// interleaving it last ran, restores the deepest one the next
// interleaving shares, and replays only the suffix. The lexicographic
// modes (ModeERPi, ModeDFS) never return to a prefix they left, so the
// stack holds every snapshot they can reuse; under ModeRand and ModeFuzz
// only the previous interleaving's prefix is reused. bytes bounds the
// cached snapshot memory per worker, so the runner.snapshot_bytes gauge —
// the sum over workers — can reach bytes × workers. Strictly an
// accelerator: results are byte-identical with the cache on or off, and
// fault-carrying interleavings always replay from a clean genesis
// checkpoint. Non-positive bytes disables the cache.
func WithPrefixCache(bytes int64) Option {
	return func(s *Session) { s.cfg.PrefixCacheBytes = bytes }
}

// WithSubsumption enables DPOR-style state subsumption: interleavings
// whose execution frontier reaches an already-visited (state-hash,
// remaining-event-multiset) pair that a lexicographically smaller
// interleaving reached first are skipped — at a snapshot depth, or after
// the last event, before Finalize — since their outcomes are provably
// ones executed interleavings produce, so the deduplicated
// outcome-signature set is unchanged while far fewer interleavings
// execute. A prefix skipped at a snapshot depth is dead: every later
// interleaving that extends it is skipped before it replays anything. bytes bounds the shared visited-frontier table, whose entries
// are a fixed size (the witness is kept as its exploration index, not
// its prefix). Skipped interleavings still count toward
// MaxInterleavings and the journal, and are reported in Result.Subsumed.
// Honored by the lexicographic modes (ER-π pruned and DFS) only;
// fault-carrying interleavings always execute. Non-positive bytes
// disables subsumption.
func WithSubsumption(bytes int64) Option {
	return func(s *Session) { s.cfg.SubsumptionTable = bytes }
}

// WithForensics captures a self-contained forensic bundle for each
// violating interleaving into dir (created on first violation): the event
// schedule, fault plan, per-step canonical state timeline, a fault-free
// baseline for divergence alignment, and the run's telemetry span slice.
// Render a bundle with `erpi explain <bundle.json>`. Capture re-executes
// the violating interleaving after the fact — the exploration hot path is
// untouched, so results and determinism pins are identical with or
// without it. At most 8 bundles (DefaultMaxForensicBundles in the runner)
// are written per run; paths appear in Result.Bundles.
func WithForensics(dir string) Option {
	return func(s *Session) { s.cfg.ForensicDir = dir }
}

// WithStopOnViolation ends exploration at the first violation.
func WithStopOnViolation() Option {
	return func(s *Session) { s.cfg.StopOnViolation = true }
}

// WithTestedReplicas enables replica-specific pruning for the given
// replicas — the paper's "ER-π allows specifying the replicas' id as a
// parameter of higher-order functions".
func WithTestedReplicas(ids ...ReplicaID) Option {
	return func(s *Session) {
		s.pruning.TestedReplicas = append(s.pruning.TestedReplicas, ids...)
	}
}

// WithGroups declares developer-specified event groups (Algorithm 1).
func WithGroups(groups [][]EventID) Option {
	return func(s *Session) {
		s.pruning.Grouping.Extra = append(s.pruning.Grouping.Extra, groups...)
	}
}

// WithIndependentEvents declares a mutually independent event set
// (Algorithm 3).
func WithIndependentEvents(spec IndependenceSpec) Option {
	return func(s *Session) {
		s.pruning.IndependentSets = append(s.pruning.IndependentSets, spec)
	}
}

// WithFailedOps declares a failed-ops constraint (Algorithm 4).
func WithFailedOps(spec FailedOpsSpec) Option {
	return func(s *Session) {
		s.pruning.FailedOps = append(s.pruning.FailedOps, spec)
	}
}

// WithFaults injects a seeded fault schedule into the replay: replica
// crashes, link partitions and payload truncations fire at their
// scheduled (interleaving, event) coordinates. Interleavings that still
// fail after retries are quarantined in Result.Quarantined while
// exploration continues — a fault never aborts the run.
func WithFaults(schedule FaultSchedule) Option {
	return func(s *Session) { s.cfg.Faults = &schedule }
}

// WithDeadline bounds the whole exploration: when it expires the run
// returns promptly with the partial Result (Result.Interrupted set) rather
// than hanging or discarding progress: End runs under a context with this
// timeout.
func WithDeadline(d time.Duration) Option {
	return func(s *Session) { s.deadline = d }
}

// WithRetries sets how many times a failing interleaving is retried (with
// exponential backoff) before being quarantined; negative disables
// retries.
func WithRetries(n int) Option {
	return func(s *Session) { s.cfg.MaxRetries = n }
}

// WithConstraintsDir polls a directory for JSON constraint files during
// the run, re-pruning when new constraints appear (paper §5.2).
func WithConstraintsDir(dir string) Option {
	return func(s *Session) {
		poller := constraints.NewPoller(dir)
		s.cfg.ConstraintPoll = poller.Poll
	}
}

// WithJournal persists the recorded log and one record per recorded
// interleaving under dir, so an interrupted End resumes after the last
// record, with the indices, violations and FirstViolation of an
// uninterrupted run (paper §4.2). A directory recorded for another event
// log, mode, seed, pruning or fault schedule is refused. The directory is
// created on first use; errors surface from End.
func WithJournal(dir string) Option {
	return func(s *Session) { s.journalDir = dir }
}

// ReplayLive re-executes one interleaving of a scenario with one goroutine
// per replica, ordered through the given turn-gate factory — the
// deployment-shaped replay path of §4.3 (see the proxy and lockserver
// packages for in-process and distributed gates). Most callers want Run or
// Session.End instead; ReplayLive exists for debugging a single violating
// interleaving under real concurrency.
var ReplayLive = runner.ExecuteLive

// Session is the Start/End workflow of the paper's §4.1: a recorded
// segment boundary plus the replay configuration.
type Session struct {
	name       string
	newCluster func() (*Cluster, error)
	pruning    PruneConfig
	cfg        RunConfig
	journalDir string
	deadline   time.Duration
	rec        *Recorder
	statusAddr string
	status     *StatusServer
}

// NewSession prepares a session over a cluster factory. The factory is
// called once for recording and once more for replay, so it must produce
// pristine states each time.
func NewSession(newCluster func() (*Cluster, error), opts ...Option) (*Session, error) {
	if newCluster == nil {
		return nil, fmt.Errorf("erpi: nil cluster factory")
	}
	s := &Session{name: "session", newCluster: newCluster}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Start begins recording and returns the recorder the workload drives —
// the paper's ER-π.Start().
func (s *Session) Start() (*Recorder, error) {
	if s.rec != nil {
		return nil, fmt.Errorf("erpi: session already started")
	}
	if s.statusAddr != "" && s.status == nil {
		if s.cfg.Telemetry == nil {
			s.cfg.Telemetry = telemetry.New()
		}
		srv, err := telemetry.NewStatusServer(s.statusAddr, s.cfg.Telemetry)
		if err != nil {
			return nil, fmt.Errorf("erpi: %w", err)
		}
		s.status = srv
	}
	cluster, err := s.newCluster()
	if err != nil {
		return nil, fmt.Errorf("erpi: recording cluster: %w", err)
	}
	s.rec = runner.NewRecorder(cluster)
	return s.rec, nil
}

// Status returns the session's status server (nil unless WithStatusServer
// was used and Start has run). The server keeps serving after End; callers
// close it when done inspecting.
func (s *Session) Status() *StatusServer { return s.status }

// Metrics returns the session's telemetry registry: the one given to
// WithTelemetry, or the registry WithStatusServer created at Start (nil if
// neither applies).
func (s *Session) Metrics() *Telemetry { return s.cfg.Telemetry }

// End stops recording, generates and prunes the interleavings, replays
// them, and checks the assertions — the paper's ER-π.End([tests...]).
func (s *Session) End(assertions ...Assertion) (*Result, error) {
	if s.rec == nil {
		return nil, fmt.Errorf("erpi: session not started")
	}
	log, err := s.rec.Log()
	s.rec = nil
	if err != nil {
		return nil, fmt.Errorf("erpi: recording failed: %w", err)
	}
	cfg := s.cfg
	cfg.Assertions = append(cfg.Assertions, assertions...)
	if s.journalDir != "" {
		dir, err := checkpoint.Open(s.journalDir)
		if err != nil {
			return nil, fmt.Errorf("erpi: journal: %w", err)
		}
		cfg.Journal = dir
		// The journal buffers appends; close it (flushing the tail) once
		// the run is over, whatever the outcome.
		defer dir.Close()
	}
	ctx := context.Background()
	if s.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.deadline)
		defer cancel()
	}
	return runner.RunContext(ctx, Scenario{
		Name:       s.name,
		Log:        log,
		NewCluster: s.newCluster,
		Pruning:    s.pruning,
	}, cfg)
}
