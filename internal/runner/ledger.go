package runner

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/event"
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
// forensic capture, the durable record (Config.Journal), and whether
// exploration stops.
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
	// replay holds, in ModeFuzz, the signature of every resumed key the
	// explorer has not re-emitted yet ("" for one that produced none).
	replay map[string]string
	// rec is the record Record appends to Config.Journal, reused.
	rec checkpoint.Record
}

// NewLedger builds a ledger that accounts into res. Honored Config fields:
// Assertions, OnOutcome, StopOnViolation, ForensicDir, MaxForensicBundles,
// Journal and Telemetry, plus Mode, Seed and Faults for forensic
// re-execution. explorer is the run's enumeration source; when it is a
// generation explorer (ModeFuzz) the ledger classifies every result with
// it.
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
// state-subsumption skip — the index, record and dedup key all stand,
// there is just nothing to assert on — or the final execution error after
// `attempts` attempts, which quarantines the interleaving so the run
// yields everything else instead of aborting. With Config.Journal set it
// appends the result's record there and returns it (reused by the next
// call); without, it returns nil. An error is the journal's.
func (l *Ledger) Record(index int, il interleave.Interleaving, outcome *Outcome, attempts int, err error) (*checkpoint.Record, error) {
	var key, sig string
	if l.ge != nil || l.cfg.Journal != nil {
		key = il.Key()
		if outcome != nil {
			sig = behaviorSignature(outcome)
		}
	}
	if l.ge != nil {
		// A fault-armed execution's signature reflects the fault schedule,
		// not the order mutation, so it must not steer the corpus — the
		// same bypass the prefix cache and subsumption table apply.
		if err != nil || outcome.FaultArmed {
			l.ge.ReportDropped(key)
		} else {
			l.ge.ReportOutcome(key, sig)
		}
	}
	r := &l.rec
	*r = checkpoint.Record{Index: index, Key: key, Sig: sig, Attempts: attempts, Violations: r.Violations[:0]}
	var added []Violation
	switch {
	case errors.Is(err, ErrSubsumed):
		l.res.Subsumed++
		r.Subsumed = true
	case err != nil:
		l.tel.quarantined.Inc()
		l.res.Quarantined = append(l.res.Quarantined, ExecError{
			Index:        index,
			Interleaving: il,
			Attempts:     attempts,
			Err:          err,
		})
		r.Error = err.Error()
	default:
		added = l.check(index, il, outcome)
	}
	if l.cfg.Journal == nil {
		return nil, nil
	}
	for _, v := range added {
		r.Violations = append(r.Violations, checkpoint.Violation{Index: index, Key: key, Assertion: v.Assertion, Error: v.Err.Error()})
	}
	return r, l.cfg.Journal.Append(r)
}

// check runs an outcome past OnOutcome and the assertions and returns the
// violations it added (a tail of Result.Violations).
func (l *Ledger) check(index int, il interleave.Interleaving, outcome *Outcome) []Violation {
	if l.cfg.OnOutcome != nil {
		l.cfg.OnOutcome(outcome)
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
	l.tel.violations.Add(int64(len(added)))
	if len(added) > 0 {
		if l.res.FirstViolation == 0 {
			l.res.FirstViolation = index
		}
		l.captureForensic(il, index, added)
	}
	return added
}

// Resume reads an earlier session's records back from Config.Journal:
// Resumed, Violations, FirstViolation, Quarantined and Subsumed come back
// into the Result, and in ModeFuzz each record's signature waits for
// Skipped to replay it. The records are indices 1..n in order — what
// Record wrote — so the caller dedups their keys and numbers on from n+1,
// and a resumed session's indices are those of an uninterrupted one.
// Stateful assertions and OnOutcome do not see resumed results, and a
// fault-armed ModeFuzz outcome replays as its signature (the record does
// not say it was armed).
func (l *Ledger) Resume() ([]checkpoint.Record, error) {
	if l.cfg.Journal == nil {
		return nil, nil
	}
	recs, err := l.cfg.Journal.Records()
	if err != nil {
		return nil, err
	}
	if l.ge != nil {
		l.replay = make(map[string]string, len(recs))
	}
	for i := range recs {
		r := &recs[i]
		if r.Index != i+1 {
			return nil, fmt.Errorf("runner: %s: record %d has index %d", l.cfg.Journal.Path(), i+1, r.Index)
		}
		if l.replay != nil {
			l.replay[r.Key] = r.Sig
		}
		if r.Subsumed {
			l.res.Subsumed++
		}
		if r.Error == "" && len(r.Violations) == 0 {
			continue
		}
		il, err := parseKey(r.Key)
		if err != nil {
			return nil, fmt.Errorf("runner: %s: record %d: %w", l.cfg.Journal.Path(), r.Index, err)
		}
		if r.Error != "" {
			l.res.Quarantined = append(l.res.Quarantined, ExecError{Index: r.Index, Interleaving: il, Attempts: r.Attempts, Err: errors.New(r.Error)})
		}
		for _, v := range r.Violations {
			l.res.Violations = append(l.res.Violations, Violation{Index: r.Index, Interleaving: il, Assertion: v.Assertion, Err: errors.New(v.Error)})
		}
		if len(r.Violations) > 0 && l.res.FirstViolation == 0 {
			l.res.FirstViolation = r.Index
		}
	}
	l.res.Resumed = len(recs)
	return recs, nil
}

// Skipped classifies a key the driver's dedup kept from executing. In
// ModeFuzz a resumed key gets its recorded signature, once — what its
// execution reported in the earlier session — so the corpus evolves as in
// an uninterrupted run; anything else yields no corpus evidence. Callers
// hold whatever orders them against Record's use of the explorer.
func (l *Ledger) Skipped(key string) {
	if l.ge == nil {
		return
	}
	if sig, ok := l.replay[key]; ok {
		delete(l.replay, key)
		if sig != "" {
			l.ge.ReportOutcome(key, sig)
			return
		}
	}
	l.ge.ReportDropped(key)
}

// Stopped reports that exploration should end here: StopOnViolation is
// set and a violation is on record — the bug-reproduction configuration
// of §6.3.
func (l *Ledger) Stopped() bool {
	return l.cfg.StopOnViolation && l.res.FirstViolation > 0
}

// parseKey inverts interleave.Interleaving.Key: comma-separated decimal
// event IDs, no field empty and no sign.
func parseKey(key string) (interleave.Interleaving, error) {
	fields := strings.Split(key, ",")
	il := make(interleave.Interleaving, len(fields))
	for i, f := range fields {
		id, err := strconv.ParseUint(f, 10, 63)
		if err != nil {
			return nil, fmt.Errorf("malformed interleaving key %q", key)
		}
		il[i] = event.ID(id)
	}
	return il, nil
}
