package runner

import (
	"errors"

	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Ledger is the engine's one in-order result ledger. Every driver — the
// in-process pool (inline or with worker goroutines, checkpointed or
// live) and the distributed coordinator's range aggregation — feeds it
// each explored interleaving's result exactly once, in exploration-index
// order, from one goroutine at a time (the pool's workers take turns under
// its mutex, the coordinator has one aggregator; the ledger has no lock of
// its own). The ledger alone decides what a result means for the run: how
// a generation explorer classifies it, Subsumed and Quarantined
// accounting, the OnOutcome hook, the assertion loop, FirstViolation,
// forensic capture, and whether exploration stops.
// Because results arrive in index order, stateful assertions and OnOutcome
// observers see the same history at every worker count.
type Ledger struct {
	s   Scenario
	cfg Config
	res *Result
	tel *runTelemetry
	// ge is the explorer's generation protocol (nil outside ModeFuzz):
	// children are classified by interleaving key, so the corpus evolves
	// on evidence that is independent of who executed what, and when.
	// Re-pruning never replaces it: only ModeERPi regenerates its explorer.
	ge generationExplorer
}

// NewLedger builds a ledger that accounts into res. Honored Config fields:
// Assertions, OnOutcome, StopOnViolation, ForensicDir, MaxForensicBundles
// and Telemetry, plus Mode, Seed and Faults for forensic re-execution.
// explorer is the run's enumeration source; when it is a generation
// explorer (ModeFuzz) the ledger classifies every result with it. A caller
// resuming an earlier session may pre-populate res.
func NewLedger(s Scenario, cfg Config, explorer interleave.Explorer, res *Result) *Ledger {
	return newLedger(s, cfg, explorer, res, newRunTelemetry(cfg.Telemetry))
}

func newLedger(s Scenario, cfg Config, explorer interleave.Explorer, res *Result, tel *runTelemetry) *Ledger {
	ge, _ := explorer.(generationExplorer)
	return &Ledger{s: s, cfg: cfg, res: res, tel: tel, ge: ge}
}

// Record consumes the result of the interleaving explored at index. An
// executed interleaving passes its outcome and a nil err. Otherwise
// outcome is nil and err says why there is none: ErrSubsumed for a
// state-subsumption skip — the index, journal entry and dedup key all
// stand, there is just nothing to assert on — or the final execution
// error after `attempts` attempts, which quarantines the interleaving so
// the run yields everything else instead of aborting. It returns the
// violations this result added (a tail of Result.Violations).
func (l *Ledger) Record(index int, il interleave.Interleaving, outcome *Outcome, attempts int, err error) []Violation {
	if err != nil {
		if l.ge != nil {
			l.ge.ReportDropped(il.Key())
		}
		if errors.Is(err, ErrSubsumed) {
			l.res.Subsumed++
			return nil
		}
		l.tel.onQuarantined()
		l.res.Quarantined = append(l.res.Quarantined, ExecError{
			Index:        index,
			Interleaving: il,
			Attempts:     attempts,
			Err:          err,
		})
		return nil
	}
	if l.cfg.OnOutcome != nil {
		l.cfg.OnOutcome(outcome)
	}
	if l.ge != nil {
		// A fault-armed execution's signature reflects the fault schedule,
		// not the order mutation, so it must not steer the corpus — the
		// same bypass the prefix cache and subsumption table apply.
		if outcome.FaultArmed {
			l.ge.ReportDropped(il.Key())
		} else {
			l.ge.ReportOutcome(il.Key(), behaviorSignature(outcome))
		}
	}
	before := len(l.res.Violations)
	assertSpan := l.tel.span(telemetry.StageAssert, index, telemetry.CoordinatorWorker)
	for _, a := range l.cfg.Assertions {
		if err := a.Check(outcome); err != nil {
			l.res.Violations = append(l.res.Violations, Violation{
				Index:        index,
				Interleaving: il,
				Assertion:    a.Name(),
				Err:          err,
			})
		}
	}
	assertSpan.End()
	added := l.res.Violations[before:]
	l.tel.onViolations(len(added))
	if len(added) > 0 {
		if l.res.FirstViolation == 0 {
			l.res.FirstViolation = index
		}
		l.captureForensic(il, index, added)
	}
	return added
}

// Stopped reports that exploration should end here: StopOnViolation is
// set and a violation is on record — the bug-reproduction configuration
// of §6.3.
func (l *Ledger) Stopped() bool {
	return l.cfg.StopOnViolation && l.res.FirstViolation > 0
}
