package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/telemetry"
)

// workItem is one interleaving handed to a worker, tagged with the stable
// exploration index the driver assigned, the explorer's next-pivot hint
// captured at pull time (-1 when unavailable), and the re-prune
// generation it was pulled under.
type workItem struct {
	index int
	il    interleave.Interleaving
	pivot int
	// gen counts explorer regenerations (ConstraintPoll re-pruning) before
	// this item was pulled. A worker that sees it move flushes its private
	// prefix cache: the cache would otherwise hold branches the new
	// sequence never walks.
	gen uint64
}

// workResult is one executed interleaving flowing back to the driver.
type workResult struct {
	index    int
	il       interleave.Interleaving
	outcome  *Outcome
	attempts int
	err      error
}

// attempter runs one execution attempt of one interleaving in a worker's
// private environment. The checkpointed *executor resets (or
// prefix-restores) its own cluster; *liveBody replays through per-replica
// goroutines under a fresh gate session.
type attempter interface {
	attempt(ctx context.Context, item workItem) (*Outcome, error)
}

// workerEnv is one worker: its attempter plus the retry policy around it.
// Not safe for concurrent use.
type workerEnv struct {
	w          int
	body       attempter
	tel        *runTelemetry
	jitter     *rand.Rand
	timeout    time.Duration
	maxRetries int
	backoff    time.Duration
}

// newWorkerEnv builds worker w's private execution environment: its fault
// injector clone (instrumented when telemetry is on), its seeded
// retry-jitter generator, and its attempter — live gate sessions when
// live, else a fresh cluster checkpointed at genesis behind an executor
// with optional prefix cache. sub is the run's shared subsumption table
// (nil when disabled); unlike the cache, all workers consult the same one.
func newWorkerEnv(s Scenario, cfg Config, w int, tel *runTelemetry, sub *subsumeTable, live bool) (*workerEnv, error) {
	var inj *fault.Injector
	if cfg.Faults != nil {
		var err error
		inj, err = fault.NewInjector(*cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("runner: %w", err)
		}
		tel.instrument(inj)
	}
	env := &workerEnv{
		w:   w,
		tel: tel,
		// Per-worker jitter generator: retry timing varies across workers,
		// but which interleavings run and what they compute never depends
		// on it.
		jitter:     rand.New(rand.NewSource(cfg.Seed ^ 0x5deece66d ^ int64(w+1)<<32)),
		timeout:    cfg.InterleavingTimeout,
		maxRetries: cfg.MaxRetries,
		backoff:    cfg.RetryBackoff,
	}
	if live {
		gatesFor := cfg.LiveGates
		if gatesFor == nil {
			gatesFor = localSessions
		}
		sessions, err := gatesFor(w)
		if err != nil {
			return nil, fmt.Errorf("runner: live gates for worker %d: %w", w, err)
		}
		env.body = &liveBody{s: s, w: w, sessions: sessions, inj: inj, tel: tel}
		return env, nil
	}
	cluster, err := s.NewCluster()
	if err != nil {
		return nil, fmt.Errorf("runner: cluster setup: %w", err)
	}
	if err := cluster.Checkpoint(); err != nil {
		return nil, err
	}
	exec := &executor{log: s.Log, cluster: cluster, finalize: s.Finalize, inj: inj, tel: tel, worker: w, sub: sub}
	if cfg.PrefixCacheBytes > 0 {
		// Private per-worker cache: no cross-worker sharing, so what a
		// worker computes never depends on what other workers ran.
		exec.cache = newPrefixCache(cfg.PrefixCacheBytes, cfg.PrefixSnapshotEvery)
	}
	exec.subEvery = cfg.PrefixSnapshotEvery
	if exec.subEvery <= 0 {
		exec.subEvery = defaultPrefixSnapshotEvery
	}
	env.body = exec
	return env, nil
}

// run executes one item for the drivers: the retry loop under an execute
// span, with the worker's progress slot published around it.
func (e *workerEnv) run(ctx context.Context, item workItem) workResult {
	e.tel.setWorker(e.w, item.index)
	span := e.tel.span(telemetry.StageExecute, item.index, e.w)
	outcome, attempts, err := e.execute(ctx, item)
	span.End()
	e.tel.setWorker(e.w, 0)
	return workResult{index: item.index, il: item.il, outcome: outcome, attempts: attempts, err: err}
}

// execute drives the attempter through the retry policy: each attempt
// under the per-interleaving timeout (when configured), exponential
// backoff with seeded ±50% jitter between attempts, up to maxRetries
// retries, aborting early when ctx dies. It returns the outcome, the
// number of attempts made, and the final error when every attempt failed.
func (e *workerEnv) execute(ctx context.Context, item workItem) (*Outcome, int, error) {
	for attempts := 1; ; attempts++ {
		ilCtx, cancel := ctx, context.CancelFunc(nil)
		if e.timeout > 0 {
			ilCtx, cancel = context.WithTimeout(ctx, e.timeout)
		}
		outcome, err := e.body.attempt(ilCtx, item)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return outcome, attempts, nil
		}
		if ctx.Err() != nil {
			return nil, attempts, ctx.Err()
		}
		// ErrSubsumed is not a failure: re-executing would reach the same
		// visited frontier and skip again.
		if errors.Is(err, ErrSubsumed) || attempts > e.maxRetries {
			return nil, attempts, err
		}
		e.tel.onRetry()
		select {
		case <-ctx.Done():
			return nil, attempts, ctx.Err()
		case <-time.After(retryDelay(e.backoff, attempts, e.jitter)):
		}
	}
}

// maxRetryBackoff caps the exponential retry backoff. Without it, doubling
// the base per attempt overflows time.Duration after ~63 shifts (sooner
// with large bases), producing a negative delay that panics the jitter
// draw.
const maxRetryBackoff = 30 * time.Second

// retryDelay computes the sleep before retry number `attempt` (1-based):
// exponential backoff from base, clamped to maxRetryBackoff, with seeded
// ±50% jitter.
func retryDelay(base time.Duration, attempt int, jitter *rand.Rand) time.Duration {
	backoff := base
	for i := 1; i < attempt; i++ {
		if backoff >= maxRetryBackoff/2 {
			backoff = maxRetryBackoff
			break
		}
		backoff <<= 1
	}
	if backoff > maxRetryBackoff {
		backoff = maxRetryBackoff
	}
	return backoff/2 + time.Duration(jitter.Int63n(int64(backoff)+1))
}

// attempt performs one checkpointed execution attempt: flush the prefix
// cache when re-pruning regenerated the explorer since this executor last
// ran, run the interleaving (execute itself restores the cluster from a
// cached prefix or the genesis checkpoint), finalize, and recompute the
// outcome's post-finalize fields.
func (x *executor) attempt(ctx context.Context, item workItem) (*Outcome, error) {
	if x.cache != nil && item.gen != x.gen {
		x.gen = item.gen
		freed, stateFreed := x.cache.invalidate()
		x.tel.onSnapshot(-freed, 0)
		x.tel.onPrefixDeltaBytes(-stateFreed)
		x.prevIL = nil
	}
	x.pivot = item.pivot
	outcome, err := x.execute(ctx, item.il, item.index)
	if err != nil {
		return nil, err
	}
	if x.finalize != nil {
		if err := x.finalize(x.cluster); err != nil {
			return nil, fmt.Errorf("finalize: %w", err)
		}
		outcome.Fingerprints = x.cluster.Fingerprints()
		outcome.Converged = x.cluster.Converged()
	}
	return outcome, nil
}

// liveBody is the live replay worker: every attempt runs executeLive under
// a fresh gate session — which is what makes retrying safe at all. A
// failed attempt may leave stale goroutines wedged inside WaitTurn until
// their context dies; session fencing means the retry cannot hear them.
type liveBody struct {
	s        Scenario
	w        int
	sessions SessionFactory
	inj      *fault.Injector
	tel      *runTelemetry
}

func (b *liveBody) attempt(ctx context.Context, item workItem) (*Outcome, error) {
	sess, err := b.sessions()
	if err != nil {
		return nil, fmt.Errorf("live session: %w", err)
	}
	b.tel.onLiveSession(1)
	defer func() {
		_ = sess.Close()
		b.tel.onLiveSession(-1)
	}()
	return executeLive(ctx, b.s, item.il, item.index, b.w, sess.Gate, b.inj, b.tel.registry())
}
