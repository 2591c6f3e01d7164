package runner

import (
	"encoding/hex"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/forensics"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Violation forensics (DESIGN.md §4.13): when an interleaving violates an
// assertion and Config.ForensicDir is set, the engine re-executes that
// one interleaving on a fresh cluster with a step observer attached,
// capturing the per-replica canonical-state timeline after every
// delivered event, then executes the recorded order fault-free for a
// baseline, and writes the whole thing as one JSON bundle.
//
// Capture is strictly post-hoc re-execution: the exploration hot path is
// never instrumented, so determinism pins (Workers 1 vs 8, cache on/off,
// subsumption on/off) and the nil-telemetry zero-alloc guarantee are
// untouched. Replay is deterministic, so the re-execution reproduces the
// violating outcome exactly.

// DefaultMaxForensicBundles caps the bundles written per run: forensics
// are a diagnostic artifact, not an exhaustive violation archive.
const DefaultMaxForensicBundles = 8

// buildBundle re-executes one interleaving of the scenario with per-step
// state capture and returns its forensic bundle. cfg supplies Mode, Seed,
// and Faults (the fault plan is re-armed exactly as the engines arm it —
// arming is keyed by the exploration index, so the same index reproduces
// the same faults). violations and spans annotate the bundle; spans may
// be nil.
func buildBundle(s Scenario, cfg Config, il interleave.Interleaving, index int, violations []forensics.Violation, spans []telemetry.Span) (*forensics.Bundle, error) {
	b := &forensics.Bundle{
		Version:       forensics.BundleVersion,
		Scenario:      s.Name,
		Mode:          string(cfg.Mode),
		Seed:          cfg.Seed,
		Index:         index,
		Key:           il.Key(),
		Interleaving:  ilInts(il),
		RecordedOrder: ilInts(recordedOrder(s.Log)),
		Violations:    violations,
		Faults:        cfg.Faults,
		Spans:         filterSpans(spans, index),
	}
	for _, id := range s.Log.IDs() {
		ev := s.Log.Event(id)
		b.Events = append(b.Events, forensics.EventRecord{
			ID:      int(ev.ID),
			Kind:    ev.Kind.String(),
			Replica: string(ev.Replica),
			From:    string(ev.From),
			To:      string(ev.To),
			Op:      ev.Op,
			Args:    ev.Args,
		})
	}

	// Violating-order replay with full per-step capture.
	final, err := forensicReplay(s, cfg.Faults, il, index, func(cl *replica.Cluster, pos int) error {
		step, err := captureStep(cl, il, pos, true)
		if err != nil {
			return err
		}
		b.Steps = append(b.Steps, step)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("forensics: replay interleaving #%d: %w", index, err)
	}
	b.Final = *final

	// Fault-free recorded-order baseline: hashes only per step (the full
	// state timeline of the healthy run adds bytes, not signal).
	recorded := recordedOrder(s.Log)
	baseline, err := forensicReplay(s, nil, recorded, index, func(cl *replica.Cluster, pos int) error {
		step, err := captureStep(cl, recorded, pos, false)
		if err != nil {
			return err
		}
		b.BaselineStepHashes = append(b.BaselineStepHashes, step.StateHash)
		return nil
	})
	if err != nil {
		// A baseline that cannot execute (e.g. the recorded order itself
		// trips a scenario invariant) degrades the narrative, not the
		// bundle: keep the violating-order capture.
		slog.Warn("forensic baseline replay failed",
			"component", "runner", "scenario", s.Name, "err", err)
	} else {
		b.Baseline = baseline
	}
	return b, nil
}

// forensicReplay executes one interleaving on a fresh cluster (a
// bareExecutor) with the step observer attached, finalizes, and returns
// the outcome as a FinalState.
func forensicReplay(s Scenario, faults *fault.Schedule, il interleave.Interleaving, index int, observe func(*replica.Cluster, int) error) (*forensics.FinalState, error) {
	x, err := bareExecutor(s, faults)
	if err != nil {
		return nil, err
	}
	x.step = func(pos int) error { return observe(x.cluster, pos) }
	outcome, err := x.once(il, index)
	if err != nil {
		return nil, err
	}
	final := &forensics.FinalState{
		Fingerprints: make(map[string]string, len(outcome.Fingerprints)),
		Converged:    outcome.Converged,
	}
	for r, fp := range outcome.Fingerprints {
		final.Fingerprints[string(r)] = fp
	}
	if len(outcome.Observations) > 0 {
		final.Observations = make(map[int]string, len(outcome.Observations))
		for id, v := range outcome.Observations {
			final.Observations[int(id)] = v
		}
	}
	for _, id := range outcome.FailedOps {
		final.FailedOps = append(final.FailedOps, int(id))
	}
	for _, id := range outcome.DroppedSyncs {
		final.DroppedSyncs = append(final.DroppedSyncs, int(id))
	}
	return final, nil
}

// captureStep snapshots the cluster after il[pos]: canonical state hash
// always, per-replica fingerprints and serialized states when full.
func captureStep(cl *replica.Cluster, il interleave.Interleaving, pos int, full bool) (forensics.Step, error) {
	snap, err := cl.CanonicalSnapshot()
	if err != nil {
		return forensics.Step{}, err
	}
	hash := snap.Hash()
	step := forensics.Step{
		Pos:       pos,
		EventID:   int(il[pos]),
		StateHash: hex.EncodeToString(hash[:]),
	}
	if full {
		fps := cl.Fingerprints()
		for i, id := range snap.IDs {
			step.Replicas = append(step.Replicas, forensics.ReplicaState{
				Replica:     string(id),
				Fingerprint: fps[id],
				Snapshot:    snap.Bufs[i].Data,
			})
		}
	}
	return step, nil
}

// captureForensic is the ledger's violation hook: write a bundle for one
// violating interleaving under cfg.ForensicDir, bounded by
// DefaultMaxForensicBundles. It runs in index order on the ledger's
// goroutine, so bundle numbering is deterministic. Failures are logged,
// never fatal — forensics must not take down the run they are diagnosing.
func (l *Ledger) captureForensic(il interleave.Interleaving, index int, violations []Violation) {
	if l.cfg.ForensicDir == "" {
		return
	}
	if len(l.res.Bundles) >= DefaultMaxForensicBundles {
		return
	}
	recs := make([]forensics.Violation, 0, len(violations))
	for _, v := range violations {
		recs = append(recs, forensics.Violation{Assertion: v.Assertion, Error: v.Err.Error()})
	}
	spans := l.cfg.Telemetry.Tracer().Spans()
	b, err := buildBundle(l.s, l.cfg, il, index, recs, spans)
	if err != nil {
		slog.Warn("forensic capture failed",
			"component", "runner", "scenario", l.s.Name, "index", index, "err", err)
		return
	}
	if err := os.MkdirAll(l.cfg.ForensicDir, 0o755); err != nil {
		slog.Warn("forensic dir", "component", "runner", "dir", l.cfg.ForensicDir, "err", err)
		return
	}
	path := filepath.Join(l.cfg.ForensicDir, fmt.Sprintf("forensic-%06d.json", index))
	if err := forensics.WriteFile(path, b); err != nil {
		slog.Warn("forensic write failed", "component", "runner", "path", path, "err", err)
		return
	}
	l.res.Bundles = append(l.res.Bundles, path)
}

// filterSpans keeps the spans attributed to one interleaving index.
func filterSpans(spans []telemetry.Span, index int) []telemetry.Span {
	var out []telemetry.Span
	for _, sp := range spans {
		if int(sp.Index) == index {
			out = append(out, sp)
		}
	}
	return out
}

func ilInts(il interleave.Interleaving) []int {
	out := make([]int, len(il))
	for i, id := range il {
		out[i] = int(id)
	}
	return out
}

// recordedOrder is the log's original delivery order as an interleaving.
func recordedOrder(log *event.Log) interleave.Interleaving {
	return interleave.Interleaving(log.IDs())
}
