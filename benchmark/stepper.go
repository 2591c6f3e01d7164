package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/runner"
)

// The stepper: a row driven the way runner.Run's sequential engine drives
// it, but from outside, through the exported explorer / executor /
// assertion calls, with a span around each.

// stepConfig is the executor configuration the stepper (and the runner.Run
// it is compared with) uses: the workload's accelerators, one worker, in
// process, no delay.
func stepConfig(e *env, r *row, asserts []runner.Assertion) runner.Config {
	cfg := runner.Config{
		Mode:             runner.ModeERPi,
		MaxInterleavings: r.cap,
		Seed:             e.seed,
		Workers:          1,
		StopOnViolation:  e.w.stop,
		Assertions:       asserts,
	}
	if e.w.accel {
		cfg.PrefixCacheBytes = accelBytes
		cfg.SubsumptionTable = accelBytes
	}
	return cfg
}

// stepResult is what one stepper pass over one row found.
type stepResult struct {
	root           int32
	wall           time.Duration
	generated      int
	explored       int
	subsumed       int
	failed         int
	firstViolation int
	set            *sigs
	ils            []interleave.Interleaving
}

// step drives one row the way runner.Run's sequential engine does, but
// from outside, through the exported explorer/executor/assertion calls,
// with a span around each.
func step(t *tracer, e *env, r *row) (*stepResult, error) {
	out := &stepResult{set: newSigs()}
	out.root = t.begin("stepper.row", -1, 0)
	id := t.begin("bugs.build", out.root, 0)
	s, asserts, err := r.build()
	out.wall += t.end(id)
	if err != nil {
		return nil, err
	}
	cfg := stepConfig(e, r, asserts)
	id = t.begin("prune.build", out.root, 0)
	explorer, err := runner.NewExplorer(s, cfg)
	out.wall += t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("runner.new_executor", out.root, 0)
	exec, err := runner.NewExecutor(s, cfg)
	out.wall += t.end(id)
	if err != nil {
		return nil, err
	}
	limit := r.cap
	if limit <= 0 {
		limit = runner.DefaultMaxInterleavings
	}
	ctx := context.Background()
	seen := make(map[string]struct{}, limit)
	for out.explored < limit {
		n := out.explored + 1
		ilSpan := t.begin("stepper.interleaving", out.root, n)
		id := t.begin("interleave.next", ilSpan, n)
		il, ok := explorer.Next()
		t.end(id)
		if !ok {
			out.wall += t.end(ilSpan)
			break
		}
		out.generated++
		id = t.begin("interleave.key", ilSpan, n)
		key := il.Key()
		t.end(id)
		if _, dup := seen[key]; dup {
			out.wall += t.end(ilSpan)
			continue
		}
		seen[key] = struct{}{}
		out.explored = n
		id = t.begin("runner.execute", ilSpan, n)
		outcome, _, err := exec.Execute(ctx, il, n)
		t.end(id)
		violated := false
		if err == nil {
			id = t.begin("check.assert", ilSpan, n)
			for _, a := range asserts {
				if a.Check(outcome) != nil {
					violated = true
				}
			}
			t.end(id)
		}
		out.wall += t.end(ilSpan)
		// Bookkeeping the engine's loop does not do stays outside the span.
		out.ils = append(out.ils, il)
		switch {
		case errors.Is(err, runner.ErrSubsumed):
			out.subsumed++
		case err != nil:
			out.failed++
		default:
			out.set.add(runner.OutcomeSignature(outcome))
		}
		if violated && out.firstViolation == 0 {
			out.firstViolation = n
			if cfg.StopOnViolation {
				break
			}
		}
	}
	t.end(out.root)
	return out, nil
}

// executeAllocs replays the first interleavings of a stepper pass on a
// fresh executor and returns heap allocations per Execute call.
func executeAllocs(e *env, r *row, ils []interleave.Interleaving) (float64, error) {
	if len(ils) > 500 {
		ils = ils[:500]
	}
	s, asserts, err := r.build()
	if err != nil {
		return 0, err
	}
	exec, err := runner.NewExecutor(s, stepConfig(e, r, asserts))
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, il := range ils {
		if _, _, err := exec.Execute(ctx, il, i+1); err != nil && !errors.Is(err, runner.ErrSubsumed) {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(ils)), nil
}

// stepperTwin runs runner.Run with exactly the stepper's configuration:
// the workload's accelerators, but one worker, in process and no delay.
func (e *env) stepperTwin(r *row) (passResult, error) {
	start := time.Now()
	s, asserts, err := r.build()
	if err != nil {
		return passResult{}, err
	}
	res, err := runner.Run(s, stepConfig(e, r, asserts))
	if err != nil {
		return passResult{}, err
	}
	return passResult{wall: time.Since(start), il: res.Explored, explored: res.Explored, subsumed: res.Subsumed}, nil
}

// stepRow is what the stepper phase learned about one row.
type stepRow struct {
	stepWalls, runWalls []time.Duration
	last                *stepResult
	stats               map[string]spanStat
}

// stepperPhase alternates the stepper with its runner.Run twin on every
// row until its share of the run's time is used (at least once), checks
// each stepper pass against the reference, and then reports the layers
// inside one interleaving: spans, allocations, and the micro-drives.
func (tr *tracedRun) stepperPhase(budget float64) error {
	e, w, g := tr.env, tr.env.w, tr.gate
	rows := make([]stepRow, len(e.rows))
	for rep := 0; rep == 0 || (rep < 5 && tr.elapsed() < budget); rep++ {
		for i, r := range e.rows {
			runtime.GC()
			sr, err := step(tr.tracer, e, r)
			if err != nil {
				return err
			}
			ref := tr.refs[i]
			g.attempted += sr.explored
			g.failed += sr.failed
			if w.stop {
				g.check(sr.firstViolation == pinnedFirstViolation[r.name],
					"%s/%s: stepper found the bug at %d, pinned %d", w.name, r.name, sr.firstViolation, pinnedFirstViolation[r.name])
			} else {
				g.check(sr.explored == ref.explored, "%s/%s: stepper explored %d, reference %d", w.name, r.name, sr.explored, ref.explored)
				g.check(sr.set.setDigest() == ref.set, "%s/%s: stepper signature set differs from runner.Run's", w.name, r.name)
			}
			runtime.GC()
			res, err := e.stepperTwin(r)
			if err != nil {
				return err
			}
			rows[i].stepWalls = append(rows[i].stepWalls, sr.wall)
			rows[i].runWalls = append(rows[i].runWalls, res.wall)
			rows[i].last = sr
			rows[i].stats = tr.tracer.under(sr.root)
		}
	}
	for i, r := range e.rows {
		if err := tr.reportStepRow(r, rows[i]); err != nil {
			return err
		}
	}
	tr.sampleILs = rows[0].last.ils
	return nil
}

func (tr *tracedRun) reportStepRow(r *row, sr stepRow) error {
	l := &tr.layers
	per := func(name string, scale float64) float64 {
		s := sr.stats[name]
		if s.count == 0 {
			return 0
		}
		return float64(s.total) / float64(s.count) / scale
	}
	l.add("bugs.build_us", r.name, per("bugs.build", 1e3), "")
	l.add("prune.build_us", r.name, per("prune.build", 1e3), "")
	l.add("runner.new_executor_us", r.name, per("runner.new_executor", 1e3), "")
	l.add("interleave.next_ns", r.name, per("interleave.next", 1), "")
	l.add("interleave.key_ns", r.name, per("interleave.key", 1), "")
	l.add("interleave.generated", r.name, float64(sr.last.generated), "")
	execNS := per("runner.execute", 1)
	l.add("runner.execute_ns", r.name, execNS, "")
	l.add("check.assert_ns", r.name, per("check.assert", 1), "")
	stepMed, runMed := median(wallsUS(sr.stepWalls)), median(wallsUS(sr.runWalls))
	l.add("runner.run_over_stepper", r.name, ratio(runMed, stepMed),
		fmt.Sprintf("runner.Run %.0f us / stepper %.0f us", runMed, stepMed))

	allocs, err := executeAllocs(tr.env, r, sr.last.ils)
	if err != nil {
		return err
	}
	l.add("runner.execute_allocs", r.name, allocs, "")

	s, _, err := r.build()
	if err != nil {
		return err
	}
	sc, err := subjectCosts(s, sr.last.ils)
	if err != nil {
		return err
	}
	l.add("subjects.event_ns", r.name, sc.eventNS, "")
	l.add("subjects.sync_ns", r.name, sc.syncNS, "")
	l.add("subjects.snapshot_ns", r.name, sc.snapshotNS, "")
	l.add("subjects.finalize_ns", r.name, sc.finalizeNS, "")
	cc, err := clusterCosts(s, 200)
	if err != nil {
		return err
	}
	l.add("replica.reset_ns", r.name, cc.resetNS, "")
	l.add("replica.snapshot_ns", r.name, cc.snapshotNS, "")
	l.add("replica.restore_ns", r.name, cc.restoreNS, "")
	l.add("replica.fingerprints_ns", r.name, cc.fingerprintsNS, "")
	// Self time: what Execute spends that is neither the subject's events
	// and finalize nor the cluster reset. With accelerators on this charges
	// whole-log event cost to interleavings that replayed only a suffix, so
	// it reads low there; cap-seq is where to read it.
	self := execNS - float64(sc.applies)*sc.eventNS - float64(sc.syncs)*sc.syncNS - sc.finalizeNS - cc.resetNS
	note := fmt.Sprintf("execute %.0f - %d x event - %d x sync - finalize - reset", execNS, sc.applies, sc.syncs)
	if self < 0 {
		note += "; NEGATIVE: the micro-drives cost more than the whole Execute, the subtraction does not hold on this row"
	}
	l.add("runner.execute_self_ns", r.name, self, note)
	return nil
}
