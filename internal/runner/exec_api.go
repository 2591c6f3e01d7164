package runner

import (
	"context"
	"fmt"
	"time"

	"github.com/er-pi/erpi/internal/interleave"
)

// This file is the exported execution facade: the exact worker-side stack
// the in-process driver runs (private cluster, injector clone, prefix
// cache, retry-with-seeded-jitter) packaged so out-of-process callers —
// the distributed coordinator's workers foremost — execute interleavings
// with byte-identical semantics to an in-process Workers=N run. Both go
// through newWorkerEnv, so there is one definition of "execute an
// interleaving" in the codebase.

// normalizeRetry applies Config's documented retry defaults in place:
// MaxRetries 0 means one retry, negative disables; RetryBackoff defaults
// to 1ms. RunContext and NewExecutor share it so a standalone executor
// retries exactly like the engines.
func normalizeRetry(cfg *Config) {
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = 1
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = time.Millisecond
	}
}

// Executor replays individual interleavings of one scenario with the full
// engine semantics: genesis checkpoint reset (or prefix-cache restore),
// fault injection, Finalize, and retry-with-backoff. It is the unit a
// distributed worker runs per leased range. Not safe for concurrent use;
// build one per goroutine.
type Executor struct {
	env *workerEnv
}

// NewExecutor builds a standalone interleaving executor for the scenario.
// Honored Config fields: Seed, Faults, MaxRetries, RetryBackoff,
// InterleavingTimeout, PrefixCacheBytes, PrefixSnapshotEvery,
// SubsumptionTable (with Mode gating it, lexicographic modes only),
// Telemetry. With SubsumptionTable > 0 the executor keeps a private
// visited-frontier table across Execute calls and returns ErrSubsumed for
// skipped interleavings — a distributed worker's per-process equivalent
// of a run's shared table.
func NewExecutor(s Scenario, cfg Config) (*Executor, error) {
	if s.Log == nil || s.Log.Len() == 0 {
		return nil, fmt.Errorf("runner: scenario has no events")
	}
	if s.NewCluster == nil {
		return nil, fmt.Errorf("runner: scenario has no cluster factory")
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("runner: %w", err)
		}
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeERPi
	}
	normalizeRetry(&cfg)
	env, err := newWorkerEnv(s, cfg, 0, newRunTelemetry(cfg.Telemetry), newSubsumption(cfg), false)
	if err != nil {
		return nil, err
	}
	return &Executor{env: env}, nil
}

// Execute replays one interleaving at the given global exploration index
// (the index keys deterministic fault arming, so distributed workers must
// pass the coordinator-assigned index, not a local counter). It returns
// the outcome, the number of attempts made, and the final error when every
// attempt failed — the triple Ledger.Record takes. With Telemetry
// attached, each call counts toward runner.explored and the progress
// snapshot, like the driver's per-index accounting — this is what a
// distributed worker's federation reports are built from.
func (e *Executor) Execute(ctx context.Context, il interleave.Interleaving, index int) (*Outcome, int, error) {
	e.env.tel.onExplored()
	return e.env.execute(ctx, workItem{index: index, il: il, pivot: -1})
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
