package runner

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/er-pi/erpi/internal/checkpoint"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/telemetry"
)

// Ledger is the engine's one exploration ledger. Every driver — the
// in-process pool (inline or with worker goroutines, checkpointed or
// live) and the distributed coordinator — takes each exploration index
// from it (Next) and feeds it each result exactly once, in index order
// (Record), one call at a time (under the pool's mutex, or the job's
// ledger mutex; the ledger has no lock of its own). The ledger alone
// decides which interleaving gets which index and what a result means for
// the run: how a generation explorer classifies it, Explored, Subsumed and
// Quarantined accounting, the OnOutcome hook, the assertion loop,
// FirstViolation, forensic capture, the durable record (Config.Journal),
// and whether exploration stops. Because results arrive in index order,
// assertions and OnOutcome observers see the same history at every worker
// count.
type Ledger struct {
	s        Scenario
	cfg      Config
	res      *Result
	tel      *runTelemetry
	explorer interleave.Explorer // what Next pulls; reprune replaces it
	// ge is the explorer's generation protocol (nil outside ModeFuzz):
	// children are classified by interleaving key, so the corpus evolves
	// on evidence that is independent of who executed what, and when.
	// Re-pruning never replaces it: only ModeERPi regenerates its explorer.
	ge generationExplorer
	// resume holds the fingerprint of every resumed record's key the
	// driver has not met yet, with its signature for ModeFuzz to replay
	// ("" for one that produced none). Nil without records and once all
	// are met, so resumed costs a nil check from then on.
	resume map[uint64]string
	// carved holds every interleaving assigned, in a ModeERPi run with a
	// ConstraintPoll only (nil otherwise): a re-prune restarts the explorer,
	// and what was assigned before must not run again. Not a seek past the
	// last key: a merged Grouping.Extra rebuilds the unit space.
	carved exploredSet
	// assigned is the highest index that exists (resumed ones included),
	// max the session-wide cap on it.
	assigned, max int
	// rec is the record Record appends to Config.Journal, reused.
	rec checkpoint.Record
}

// NewLedger builds a ledger that assigns indices from explorer and
// accounts into res. Honored Config fields: MaxInterleavings,
// Assertions, OnOutcome, StopOnViolation, ForensicDir, Journal and
// Telemetry, plus Mode, Seed and Faults for forensic re-execution and,
// with FuzzGenerationSize, the enumeration Resume claims the Journal for;
// a ConstraintPoll in ModeERPi makes it keep the carved set. When explorer
// is a generation explorer (ModeFuzz) the ledger classifies every result
// with it and evolves its corpus.
func NewLedger(s Scenario, cfg Config, explorer interleave.Explorer, res *Result) *Ledger {
	return newLedger(s, cfg, explorer, res, newRunTelemetry(cfg.Telemetry))
}

func newLedger(s Scenario, cfg Config, explorer interleave.Explorer, res *Result, tel *runTelemetry) *Ledger {
	l := &Ledger{s: s, cfg: cfg, res: res, tel: tel, explorer: explorer, max: cfg.MaxInterleavings}
	l.ge, _ = explorer.(generationExplorer)
	switch {
	case l.max == 0:
		l.max = DefaultMaxInterleavings
	case l.max < 0:
		l.max = int(^uint(0) >> 1) // unbounded
	}
	if cfg.ConstraintPoll != nil && cfg.Mode == ModeERPi {
		l.carved = exploredSet{}
	}
	if cfg.Journal != nil {
		// The journal's syncs count where the ledger's records do, for
		// every driver; without telemetry this removes an earlier run's.
		cfg.Journal.SetFsyncObserver(tel.fsyncObserver())
	}
	return l
}

// Why Next assigned nothing: ErrHold, a fuzz generation is fully assigned
// and evolves only once Record has classified every child; ErrDone, the
// cap is reached, the space exhausted or the ledger stopped.
var (
	ErrHold = errors.New("runner: the fuzz generation awaits its results")
	ErrDone = errors.New("runner: assignment is over")
)

// Next assigns the next exploration index to the next interleaving the
// explorer yields that no resumed record (which keeps its index) and, after
// a re-prune, no earlier assignment holds. Its only errors are ErrHold and
// ErrDone; after ErrDone every call returns ErrDone. The record log
// (Config.Journal, appended by Record) is what persists the assignment.
// Callers order Next against Record.
func (l *Ledger) Next() (int, interleave.Interleaving, error) {
	for !l.Done() {
		if l.ge != nil && l.ge.GenerationEnd() {
			if l.ge.Pending() > 0 {
				return 0, nil, ErrHold
			}
			l.evolve()
		}
		il, more := l.explorer.Next()
		if !more {
			l.res.Exhausted = true
			break
		}
		// Both checks run: a resumed key met before a re-prune must be in
		// the carved set when the new sequence meets it again.
		resumed := l.resumed(il)
		if repeat := l.carved != nil && l.carved.seen(il); resumed || repeat {
			l.tel.dedupSkipped.Inc()
			continue
		}
		l.assigned++
		return l.assigned, il, nil
	}
	return 0, nil, ErrDone
}

// Done reports that Next assigns nothing more.
func (l *Ledger) Done() bool { return l.res.Exhausted || l.assigned >= l.max || l.Stopped() }

// reprune makes explorer, regenerated over merged constraints, the one
// Next pulls; the carved set skips what it yields again.
func (l *Ledger) reprune(explorer interleave.Explorer) { l.explorer = explorer }

// evolve folds a fully classified generation into the fuzzer's corpus
// under a StageFuzzEvolve span and publishes the corpus gauges. Children
// that were never recorded (a stop or an interruption mid-generation)
// leave Pending non-zero; the corpus must not evolve on partial evidence.
// No-op for other explorers.
func (l *Ledger) evolve() {
	ge := l.ge
	if ge == nil || !ge.GenerationEnd() || ge.Pending() != 0 {
		return
	}
	span := l.tel.span(telemetry.StageFuzzEvolve, l.assigned, telemetry.CoordinatorWorker)
	ge.Evolve()
	span.End()
	l.tel.onFuzzGeneration(ge.CorpusSize(), ge.NoveltyRate())
}

// Record consumes the result of the interleaving explored at index. An
// executed interleaving passes its outcome and a nil err. Otherwise
// outcome is nil and err says why there is none: ErrSubsumed for a
// state-subsumption skip — the index and record stand, there is just
// nothing to assert on — or the final execution error after
// `attempts` attempts, which quarantines the interleaving so the run
// yields everything else instead of aborting. Every call counts one
// Result.Explored and runner.explored, whatever the result, and a skip
// one Result.Subsumed and runner.subsumed_interleavings: Record is the
// only writer of those run counts, for every driver. With Config.Journal
// set it appends the result's record there and returns it (reused by the
// next call); without, it returns nil. An error is the journal's.
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
		// same bypass the prefix cache applies.
		if err != nil || outcome.FaultArmed {
			l.ge.ReportDropped(key)
		} else {
			l.ge.ReportOutcome(key, sig)
		}
	}
	l.res.Explored++
	l.tel.explored.Inc()
	r := &l.rec
	*r = checkpoint.Record{Index: index, Key: key, Sig: sig, Attempts: attempts, Violations: r.Violations[:0]}
	var added []Violation
	switch {
	case errors.Is(err, ErrSubsumed):
		l.res.Subsumed++
		l.tel.subsumed.Inc()
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
			if l.Stopped() {
				// Nothing past the violation counts, nor what assigning
				// past it found.
				l.res.Exhausted = false
			}
		}
		l.captureForensic(il, index, added)
	}
	return added
}

// Resume claims Config.Journal for this run's event log and enumeration —
// one recorded under another of either is refused before anything is
// written; the cap is free to change — and reads an earlier session's
// records back from it: Resumed, Violations, FirstViolation, Quarantined
// and Subsumed come back into the Result, and each record's key waits for
// Next to meet it (in ModeFuzz, with its signature to replay). The
// records are indices 1..n in order — what Record wrote — so Next skips
// every interleaving they hold and numbers on from n+1 (the records count
// toward the cap), and a resumed session's indices are those of an
// uninterrupted one. The assertions get the history an uninterrupted run
// gave them (the rule on Assertion): the first executed record of each
// signature is re-executed at its index, under the run's faults, and
// checked, its verdicts dropped because the records hold them. A record
// whose re-execution fails or reports another signature refuses the
// journal, with nothing written. OnOutcome observes this session's
// executions only, and a fault-armed ModeFuzz outcome replays as its
// signature (the record does not say it was armed).
func (l *Ledger) Resume() ([]checkpoint.Record, error) {
	if l.cfg.Journal == nil {
		return nil, nil
	}
	if err := l.cfg.Journal.SaveLog(l.s.Log); err != nil {
		return nil, err
	}
	if err := l.cfg.Journal.Claim("spec.json", enumerationOf(l.s, l.cfg)); err != nil {
		return nil, err
	}
	recs, err := l.cfg.Journal.Records()
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 {
		l.resume = make(map[uint64]string, len(recs))
	}
	var (
		x       *Executor
		checked = map[string]bool{}
	)
	for i := range recs {
		r := &recs[i]
		if r.Index != i+1 {
			return nil, fmt.Errorf("runner: %s: record %d has index %d", l.cfg.Journal.Path(), i+1, r.Index)
		}
		l.resume[fingerprint(r.Key)] = r.Sig
		if r.Subsumed {
			l.res.Subsumed++
			continue
		}
		recheck := r.Error == "" && len(l.cfg.Assertions) > 0 && !checked[r.Sig]
		if !recheck && r.Error == "" && len(r.Violations) == 0 {
			continue
		}
		il, err := parseKey(r.Key)
		if err != nil {
			return nil, fmt.Errorf("runner: %s: record %d: %w", l.cfg.Journal.Path(), r.Index, err)
		}
		if recheck {
			checked[r.Sig] = true
			if x == nil {
				if x, err = bareExecutor(l.s, l.cfg.Faults); err != nil {
					return nil, err
				}
			}
			o, err := x.once(il, r.Index)
			if err == nil && behaviorSignature(o) != r.Sig {
				err = errors.New("its outcome is not the recorded one")
			}
			if err != nil {
				return nil, fmt.Errorf("runner: %s: record %d [%s] does not replay: %w", l.cfg.Journal.Path(), r.Index, r.Key, err)
			}
			for _, a := range l.cfg.Assertions {
				_ = a.Check(o) // the records hold the verdicts
			}
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
	l.assigned = len(recs)
	return recs, nil
}

// resumed reports whether il is a resumed record Next has not met yet,
// and forgets it: Next skips it, keeping the index the record already
// holds. In ModeFuzz the key gets its recorded signature — what its
// execution reported in the earlier session — so the corpus evolves as in
// an uninterrupted run.
func (l *Ledger) resumed(il interleave.Interleaving) bool {
	if l.resume == nil {
		return false
	}
	fp := fingerprintOf(il)
	sig, ok := l.resume[fp]
	if !ok {
		return false
	}
	delete(l.resume, fp)
	if len(l.resume) == 0 {
		l.resume = nil
	}
	if l.ge != nil {
		if sig != "" {
			l.ge.ReportOutcome(il.Key(), sig)
		} else {
			l.ge.ReportDropped(il.Key())
		}
	}
	return true
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

// enumeration is what decides which interleaving gets which index, as
// Resume stores it next to the event log.
type enumeration struct {
	Mode               Mode            `json:"mode"`
	Seed               int64           `json:"seed,omitempty"`
	FuzzGenerationSize int             `json:"fuzz_generation_size,omitempty"`
	Pruning            prune.Config    `json:"pruning"`
	Faults             *fault.Schedule `json:"faults,omitempty"`
}

// enumerationOf keeps the Seed and FuzzGenerationSize only in the modes
// they drive, and Faults only when they schedule any.
func enumerationOf(s Scenario, cfg Config) enumeration {
	e := enumeration{Mode: cfg.Mode, Pruning: s.Pruning}
	if cfg.Mode == ModeRand || cfg.Mode == ModeFuzz {
		e.Seed = cfg.Seed
	}
	if cfg.Mode == ModeFuzz {
		e.FuzzGenerationSize = cfg.FuzzGenerationSize
	}
	if cfg.Faults != nil && len(cfg.Faults.Faults) > 0 {
		e.Faults = cfg.Faults
	}
	return e
}
