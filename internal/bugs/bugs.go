// Package bugs defines the twelve bug benchmarks of the paper's Table 1:
// previously reported issues in the five evaluation subjects, re-seeded
// into the re-implemented replication cores with the same interleaved
// event counts.
//
// Reproduction follows the paper's RQ1 framing: "when a bug is experienced
// during the execution of a replicated data system, it might be impossible
// for users to report which of the possible interleavings was in effect
// when the bug manifested itself." Each benchmark therefore carries the
// REPORTED MANIFESTATION — the outcome signature produced by one specific
// trigger interleaving, standing in for the user's bug report — and
// reproduction means finding any interleaving whose outcome matches it.
// The recorded workload order is always clean (its signature differs from
// the report), so reproduction genuinely requires exploration.
package bugs

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/runner"
)

// Benchmark is one Table-1 entry.
type Benchmark struct {
	// Name is the paper's benchmark label (e.g. "Roshi-1").
	Name string
	// Subject names the evaluation subject.
	Subject string
	// Issue is the upstream issue number.
	Issue int
	// Events is the interleaved event count (Table 1 "#Events").
	Events int
	// Status is the upstream issue status ("closed"/"open").
	Status string
	// Reason is the paper's root-cause class ("misconception",
	// "RDL issue", "misuse", or "—" for open issues).
	Reason string
	// Build records the workload and returns the replay scenario.
	Build func() (runner.Scenario, error)
	// FixedCluster builds the corrected subject (defect flags off); used
	// to verify that reproduction cannot succeed against the fix.
	FixedCluster func() (*replica.Cluster, error)
	// Trigger is the interleaving whose outcome is the reported
	// manifestation (the "bug report").
	Trigger []event.ID
	// sig appends the comparison signature of an outcome (Sig). Coarse
	// signatures (e.g. one observation) model loosely described reports;
	// full signatures model detailed ones.
	sig sigFunc

	once        sync.Once
	reported    string
	reportedErr error
}

// Sig returns an outcome's comparison signature.
func (b *Benchmark) Sig(o *runner.Outcome) string {
	var w sigBuf
	b.sig(&w, o)
	return string(w.b)
}

// ReportedSignature executes the trigger interleaving once and returns the
// manifestation signature the benchmark hunts for.
func (b *Benchmark) ReportedSignature() (string, error) {
	b.once.Do(func() {
		s, err := b.Build()
		if err != nil {
			b.reportedErr = err
			return
		}
		outcome, err := runner.ExecuteOnce(s, interleave.Interleaving(b.Trigger))
		if err != nil {
			b.reportedErr = fmt.Errorf("bugs: %s trigger: %w", b.Name, err)
			return
		}
		b.reported = b.Sig(outcome)
	})
	return b.reported, b.reportedErr
}

// NewAssertions returns the manifestation-matching assertion: it "fails"
// (reports a violation) exactly when an outcome reproduces the reported
// signature.
func (b *Benchmark) NewAssertions() ([]runner.Assertion, error) {
	want, err := b.ReportedSignature()
	if err != nil {
		return nil, err
	}
	return []runner.Assertion{&manifestationMatch{name: b.Name, sig: b.sig, want: want}}, nil
}

// manifestationMatch appends each outcome's signature into its own buffer
// (the ledger checks one outcome at a time) and compares bytes.
type manifestationMatch struct {
	name string
	sig  sigFunc
	want string
	w    sigBuf
}

var _ runner.Assertion = (*manifestationMatch)(nil)

func (m *manifestationMatch) Name() string { return "reproduces(" + m.name + ")" }

func (m *manifestationMatch) Check(o *runner.Outcome) error {
	m.w.b = m.w.b[:0]
	m.sig(&m.w, o)
	if string(m.w.b) == m.want {
		return errors.New("reported manifestation reproduced")
	}
	return nil
}

// BuildFixed returns the same recorded scenario replayed against the
// corrected subject: the workload's event log is subject-version-agnostic,
// so only the cluster factory changes.
func (b *Benchmark) BuildFixed() (runner.Scenario, error) {
	s, err := b.Build()
	if err != nil {
		return s, err
	}
	if b.FixedCluster == nil {
		return s, fmt.Errorf("bugs: %s has no fixed-subject factory", b.Name)
	}
	s.NewCluster = b.FixedCluster
	return s, nil
}

// All returns the twelve benchmarks in Table-1 order.
func All() []*Benchmark {
	return []*Benchmark{
		roshi1(), roshi2(), roshi3(),
		orbit1(), orbit2(), orbit3(), orbit4(), orbit5(),
		replicadb1(), replicadb2(),
		yorkie1(), yorkie2(),
	}
}

// ByName finds a benchmark by its Table-1 label.
func ByName(name string) (*Benchmark, bool) {
	for _, b := range All() {
		if strings.EqualFold(b.Name, name) {
			return b, true
		}
	}
	return nil, false
}

// buildScenario runs a recording script against a fresh cluster and
// assembles the scenario.
func buildScenario(name string, newCluster func() (*replica.Cluster, error),
	script func(rec *runner.Recorder), pruning prune.Config,
	finalize func(*replica.Cluster) error) (runner.Scenario, error) {

	cluster, err := newCluster()
	if err != nil {
		return runner.Scenario{}, fmt.Errorf("bugs: %s: cluster: %w", name, err)
	}
	rec := runner.NewRecorder(cluster)
	script(rec)
	log, err := rec.Log()
	if err != nil {
		return runner.Scenario{}, fmt.Errorf("bugs: %s: recording: %w", name, err)
	}
	return runner.Scenario{
		Name:       name,
		Log:        log,
		NewCluster: newCluster,
		Pruning:    pruning,
		Finalize:   finalize,
	}, nil
}

// Signature helpers. fullSig models a detailed bug report (every
// observation, every replica state, every rejected op); obsSig models
// reports that only mention what the user saw. Each appends to w.b, and
// sorts in w's scratch.
type sigBuf struct {
	b     []byte
	ints  []int
	items []string
}

type sigFunc func(w *sigBuf, o *runner.Outcome)

func (w *sigBuf) sep(c byte) { w.b = append(w.b, c) }

func fullSig(w *sigBuf, o *runner.Outcome) {
	obsPart(w, o, nil)
	w.sep('|')
	fpPart(w, o)
	w.sep('|')
	failedPart(w, o)
}

// obsSig restricts the signature to the given observation events.
func obsSig(events ...event.ID) sigFunc {
	return func(w *sigBuf, o *runner.Outcome) { obsPart(w, o, events) }
}

// contentSet renders an observation's comma-separated items as a sorted
// set — the granularity of a report that lists what was visible without
// recalling the exact order.
func contentSet(w *sigBuf, o *runner.Outcome, ev event.ID) {
	got, ok := o.Observations[ev]
	if !ok {
		w.b = append(w.b, "<none>"...)
		return
	}
	w.items = w.items[:0]
	for more := true; more; {
		var item string
		item, got, more = strings.Cut(got, ",")
		w.items = append(w.items, item)
	}
	slices.Sort(w.items)
	for i, item := range w.items {
		if i > 0 {
			w.sep(',')
		}
		w.b = append(w.b, item...)
	}
}

func obsPart(w *sigBuf, o *runner.Outcome, only []event.ID) {
	w.ints = w.ints[:0]
	if only == nil {
		for id := range o.Observations {
			w.ints = append(w.ints, int(id))
		}
	}
	for _, id := range only {
		w.ints = append(w.ints, int(id))
	}
	slices.Sort(w.ints)
	for i, k := range w.ints {
		if i > 0 {
			w.sep(';')
		}
		v, ok := o.Observations[event.ID(k)]
		if !ok {
			v = "<none>"
		}
		w.b = append(strconv.AppendInt(append(w.b, "ev"...), int64(k), 10), '=')
		w.b = append(w.b, v...)
	}
}

func fpPart(w *sigBuf, o *runner.Outcome) {
	w.items = w.items[:0]
	for r := range o.Fingerprints {
		w.items = append(w.items, string(r))
	}
	slices.Sort(w.items)
	for i, r := range w.items {
		if i > 0 {
			w.sep(';')
		}
		w.b = append(append(append(w.b, r...), '='), o.Fingerprints[event.ReplicaID(r)]...)
	}
}

func failedPart(w *sigBuf, o *runner.Outcome) {
	w.ints = w.ints[:0]
	for _, id := range o.FailedOps {
		w.ints = append(w.ints, int(id))
	}
	slices.Sort(w.ints)
	w.b = append(w.b, "failed["...)
	for i, x := range w.ints {
		if i > 0 {
			w.sep(',')
		}
		w.b = strconv.AppendInt(w.b, int64(x), 10)
	}
	w.sep(']')
}

// groups is shorthand for a grouping-only pruning config fragment.
func groups(g ...[]event.ID) prune.GroupSpec {
	return prune.GroupSpec{Extra: g}
}

func ids(xs ...int) []event.ID {
	out := make([]event.ID, len(xs))
	for i, x := range xs {
		out[i] = event.ID(x)
	}
	return out
}
