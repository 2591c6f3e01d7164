// Package forensics defines ER-π's violation forensic bundle: a single
// self-contained JSON artifact captured when an interleaving violates an
// assertion, holding everything a developer needs to diagnose the bug
// without re-running the exploration — the event schedule as delivered,
// the recorded baseline order, the fault-arming plan, a per-replica
// canonical-state timeline at every step, the final outcome (observations,
// failed ops, dropped syncs, convergence), a fault-free baseline outcome,
// and the telemetry span slice for the interleaving. The `erpi explain`
// subcommand renders a bundle as a causal narrative (explain.go).
//
// The schema is deliberately flat and driver-agnostic: bundles from an
// inline or pooled run, live replay, and the distributed coordinator are
// indistinguishable.
package forensics

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/telemetry"
)

// BundleVersion is the current schema version.
const BundleVersion = 1

// EventRecord is one recorded event, in plain serializable form (kind is
// the wire name: update, sync_req, exec_sync, observe).
type EventRecord struct {
	ID      int      `json:"id"`
	Kind    string   `json:"kind"`
	Replica string   `json:"replica"`
	From    string   `json:"from,omitempty"`
	To      string   `json:"to,omitempty"`
	Op      string   `json:"op,omitempty"`
	Args    []string `json:"args,omitempty"`
}

// String renders the event the way engine diagnostics do.
func (e EventRecord) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ev%d[%s@%s", e.ID, e.Kind, e.Replica)
	if e.From != "" || e.To != "" {
		fmt.Fprintf(&b, " %s->%s", e.From, e.To)
	}
	if e.Op != "" {
		fmt.Fprintf(&b, " %s(%s)", e.Op, strings.Join(e.Args, ","))
	}
	b.WriteByte(']')
	return b.String()
}

// ReplicaState is one replica's state at a timeline step.
type ReplicaState struct {
	Replica string `json:"replica"`
	// Fingerprint is the replica's state digest at this step.
	Fingerprint string `json:"fingerprint"`
	// Snapshot is the replica's canonical serialized state (base64 in the
	// JSON encoding).
	Snapshot []byte `json:"snapshot,omitempty"`
}

// Step is the cluster state after one delivered event of the violating
// interleaving.
type Step struct {
	// Pos is the 0-based position in the interleaving.
	Pos int `json:"pos"`
	// EventID is the event delivered at this position.
	EventID int `json:"event_id"`
	// StateHash is the canonical cluster-state digest after the event
	// (hex SHA-256 of the canonical snapshot encoding).
	StateHash string `json:"state_hash"`
	// Replicas are the per-replica states after the event, sorted by id.
	Replicas []ReplicaState `json:"replicas"`
}

// Violation is one assertion failure, in serializable form.
type Violation struct {
	Assertion string `json:"assertion"`
	Error     string `json:"error"`
}

// FinalState is the outcome of a completed execution (after the
// scenario's finalize/anti-entropy step).
type FinalState struct {
	Fingerprints map[string]string `json:"fingerprints"`
	Converged    bool              `json:"converged"`
	Observations map[int]string    `json:"observations,omitempty"`
	FailedOps    []int             `json:"failed_ops,omitempty"`
	DroppedSyncs []int             `json:"dropped_syncs,omitempty"`
}

// Bundle is the forensic artifact for one violating interleaving.
type Bundle struct {
	Version  int    `json:"version"`
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"`
	Seed     int64  `json:"seed"`
	// Index is the 1-based exploration index of the violating
	// interleaving; Key is its stable identity string.
	Index int    `json:"index"`
	Key   string `json:"key"`
	// Interleaving is the delivered event order; RecordedOrder is the
	// order the scenario's log recorded.
	Interleaving  []int `json:"interleaving"`
	RecordedOrder []int `json:"recorded_order"`
	// Events is the full event log, by ID.
	Events     []EventRecord `json:"events"`
	Violations []Violation   `json:"violations"`
	// Faults is the run's fault-arming plan (nil for fault-free runs).
	Faults *fault.Schedule `json:"faults,omitempty"`
	// Steps is the per-step state timeline of the violating order.
	Steps []Step `json:"steps"`
	// Final is the violating execution's outcome; Baseline is the
	// fault-free recorded-order outcome, and BaselineStepHashes its
	// per-step cluster-state digests (aligned with Steps by position).
	Final              FinalState  `json:"final"`
	Baseline           *FinalState `json:"baseline,omitempty"`
	BaselineStepHashes []string    `json:"baseline_step_hashes,omitempty"`
	// Spans is the telemetry span slice for this interleaving (empty when
	// the run had no registry attached).
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// Event returns the record for an event ID (nil when unknown).
func (b *Bundle) Event(id int) *EventRecord {
	for i := range b.Events {
		if b.Events[i].ID == id {
			return &b.Events[i]
		}
	}
	return nil
}

// Validate reports the first structural problem with a loaded bundle.
func (b *Bundle) Validate() error {
	switch {
	case b.Version != BundleVersion:
		return fmt.Errorf("forensics: unsupported bundle version %d (want %d)", b.Version, BundleVersion)
	case b.Scenario == "":
		return fmt.Errorf("forensics: bundle has no scenario name")
	case len(b.Interleaving) == 0:
		return fmt.Errorf("forensics: bundle has no interleaving")
	case len(b.Events) == 0:
		return fmt.Errorf("forensics: bundle has no event log")
	}
	return nil
}

// WriteFile persists a bundle as indented JSON.
func WriteFile(path string, b *Bundle) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("forensics: encode bundle: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads and validates a bundle file.
func Load(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("forensics: %w", err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("forensics: parse %s: %w", path, err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &b, nil
}
