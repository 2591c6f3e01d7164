// Package check is ER-π's library of test functions (paper §4.4: "ER-π
// provides a test library of commonly held wrong assumptions and
// misconceptions of RDL usage"). Each assertion checks one property of an
// interleaving's outcome; the stateful ones compare outcomes ACROSS
// interleavings, which is how the misconception detectors of §6.2 work
// ("we wrote a test that compares the replica's states, which resulted
// from different interleavings"), under the rule on runner.Assertion.
package check

import (
	"fmt"
	"slices"
	"strings"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/runner"
)

// Convergence asserts that all replicas end every interleaving with equal
// state fingerprints — the detector for misconceptions #1 and #5 when a
// replica stops coordinating, and for any non-convergent RDL integration.
type Convergence struct{}

var _ runner.Assertion = Convergence{}

// Name implements runner.Assertion.
func (Convergence) Name() string { return "convergence" }

// Check implements runner.Assertion.
func (Convergence) Check(o *runner.Outcome) error {
	if o.Converged {
		return nil
	}
	return fmt.Errorf("replicas diverged: %s", renderFingerprints(o.Fingerprints))
}

// StateStable asserts that one replica's final state is identical across
// every explored interleaving — the paper's misconception #1 and #5 test:
// if different event orders leave the replica in different states, the
// application depended on delivery order.
type StateStable struct {
	// Replica is the replica under test.
	Replica event.ReplicaID

	first    string
	firstSet bool
	firstIL  string
}

var _ runner.Assertion = (*StateStable)(nil)

// Name implements runner.Assertion.
func (s *StateStable) Name() string {
	return fmt.Sprintf("state-stable(%s)", s.Replica)
}

// Check implements runner.Assertion.
func (s *StateStable) Check(o *runner.Outcome) error {
	fp, ok := o.Fingerprints[s.Replica]
	if !ok {
		return fmt.Errorf("no fingerprint for replica %s", s.Replica)
	}
	if !s.firstSet {
		s.first, s.firstSet, s.firstIL = fp, true, o.Interleaving.Key()
		return nil
	}
	if fp != s.first {
		return fmt.Errorf("state differs across interleavings: %q (in [%s]) vs %q (in [%s])",
			s.first, s.firstIL, fp, o.Interleaving.Key())
	}
	return nil
}

// ObservationEquals asserts a specific Observe event always returns the
// expected value — the motivating example's invariant ("only the pothole
// issue is transmitted").
type ObservationEquals struct {
	// Event is the observed event's ID.
	Event event.ID
	// Want is the required observation value.
	Want string
}

var _ runner.Assertion = ObservationEquals{}

// Name implements runner.Assertion.
func (a ObservationEquals) Name() string {
	return fmt.Sprintf("observation(ev%d)==%q", int(a.Event), a.Want)
}

// Check implements runner.Assertion.
func (a ObservationEquals) Check(o *runner.Outcome) error {
	got, ok := o.Observations[a.Event]
	if !ok {
		return fmt.Errorf("event %d produced no observation", int(a.Event))
	}
	if got != a.Want {
		return fmt.Errorf("observed %q, want %q", got, a.Want)
	}
	return nil
}

// ObservationStable asserts an Observe event returns the same value in
// every interleaving (order-independence of a read).
type ObservationStable struct {
	Event event.ID

	first    string
	firstSet bool
}

var _ runner.Assertion = (*ObservationStable)(nil)

// Name implements runner.Assertion.
func (a *ObservationStable) Name() string {
	return fmt.Sprintf("observation-stable(ev%d)", int(a.Event))
}

// Check implements runner.Assertion.
func (a *ObservationStable) Check(o *runner.Outcome) error {
	got, ok := o.Observations[a.Event]
	if !ok {
		return fmt.Errorf("event %d produced no observation", int(a.Event))
	}
	if !a.firstSet {
		a.first, a.firstSet = got, true
		return nil
	}
	if got != a.first {
		return fmt.Errorf("observation differs across interleavings: %q vs %q", a.first, got)
	}
	return nil
}

// NoDuplicates asserts an observation (a rendered collection) contains no
// duplicated items — the misconception #3 detector ("moving items in a
// List doesn't cause duplication").
type NoDuplicates struct {
	// Event is the Observe event rendering the collection.
	Event event.ID
	// Sep splits the observation into items (default ",").
	Sep string
}

var _ runner.Assertion = NoDuplicates{}

// Name implements runner.Assertion.
func (a NoDuplicates) Name() string {
	return fmt.Sprintf("no-duplicates(ev%d)", int(a.Event))
}

// Check implements runner.Assertion.
func (a NoDuplicates) Check(o *runner.Outcome) error {
	got, ok := o.Observations[a.Event]
	if !ok {
		// An empty or reordered-away read has nothing to duplicate.
		return nil
	}
	sep := a.Sep
	if sep == "" {
		sep = ","
	}
	seen := make(map[string]bool)
	for _, item := range strings.Split(got, sep) {
		if item == "" {
			continue
		}
		if seen[item] {
			return fmt.Errorf("duplicated item %q in %q", item, got)
		}
		seen[item] = true
	}
	return nil
}

// NoClash asserts that two observations (e.g. IDs generated at two
// replicas) differ — the misconception #4 detector for sequential-ID
// clashes in concurrently created to-do items.
type NoClash struct {
	// EventA and EventB are the two observed events.
	EventA, EventB event.ID
}

var _ runner.Assertion = NoClash{}

// Name implements runner.Assertion.
func (a NoClash) Name() string {
	return fmt.Sprintf("no-clash(ev%d,ev%d)", int(a.EventA), int(a.EventB))
}

// Check implements runner.Assertion.
func (a NoClash) Check(o *runner.Outcome) error {
	va, oka := o.Observations[a.EventA]
	vb, okb := o.Observations[a.EventB]
	if !oka || !okb {
		return fmt.Errorf("missing observation (ev%d: %v, ev%d: %v)",
			int(a.EventA), oka, int(a.EventB), okb)
	}
	if va == vb {
		return fmt.Errorf("clash: both events produced %q", va)
	}
	return nil
}

// NoFailedOps asserts no operation was rejected by data-type constraints.
type NoFailedOps struct{}

var _ runner.Assertion = NoFailedOps{}

// Name implements runner.Assertion.
func (NoFailedOps) Name() string { return "no-failed-ops" }

// Check implements runner.Assertion.
func (NoFailedOps) Check(o *runner.Outcome) error {
	if len(o.FailedOps) == 0 {
		return nil
	}
	return fmt.Errorf("%d failed op(s): %v", len(o.FailedOps), o.FailedOps)
}

// NoFailedOpAt asserts that none of the given events was rejected by a
// constraint — a targeted variant of NoFailedOps for scenarios where some
// failed ops are legal outcomes of reordering.
type NoFailedOpAt struct {
	// Events are the event IDs that must never fail.
	Events []event.ID
}

var _ runner.Assertion = NoFailedOpAt{}

// Name implements runner.Assertion.
func (a NoFailedOpAt) Name() string {
	return fmt.Sprintf("no-failed-op-at(%v)", a.Events)
}

// Check implements runner.Assertion.
func (a NoFailedOpAt) Check(o *runner.Outcome) error {
	for _, id := range o.FailedOps {
		if slices.Contains(a.Events, id) {
			return fmt.Errorf("event %d failed", int(id))
		}
	}
	return nil
}

// Custom wraps an arbitrary predicate as an assertion (paper §4.5:
// developers can specify custom tests passed to ER-π.End()).
type Custom struct {
	// Label names the assertion.
	Label string
	// Fn returns an error on violation.
	Fn func(*runner.Outcome) error
}

var _ runner.Assertion = Custom{}

// Name implements runner.Assertion.
func (c Custom) Name() string {
	if c.Label == "" {
		return "custom"
	}
	return c.Label
}

// Check implements runner.Assertion.
func (c Custom) Check(o *runner.Outcome) error { return c.Fn(o) }

func renderFingerprints(fps map[event.ReplicaID]string) string {
	parts := make([]string, 0, len(fps))
	for _, id := range sortedIDs(fps) {
		parts = append(parts, fmt.Sprintf("%s=%q", id, fps[id]))
	}
	return strings.Join(parts, " ")
}

func sortedIDs(fps map[event.ReplicaID]string) []event.ReplicaID {
	out := make([]event.ReplicaID, 0, len(fps))
	for id := range fps {
		out = append(out, id)
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}
