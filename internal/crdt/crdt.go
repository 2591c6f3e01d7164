// Package crdt implements the replicated data library (RDL) substrate that
// ER-π's evaluation subjects integrate: state-based conflict-free
// replicated data types with a join (merge) operation that is commutative,
// associative, and idempotent, so that replicas applying the same set of
// updates in any order converge.
//
// The package provides counters (GCounter, PNCounter), sets (GSet,
// TwoPhaseSet, ORSet, LWWSet with Roshi's last-write-wins element
// semantics), registers (LWWRegister, MVRegister), an RGA sequence (with
// both a naive delete+insert Move and a winner-position MoveWins), an
// observed-remove map, and a JSON document built from those pieces.
package crdt

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Time is a logical timestamp: a Lamport counter with the replica ID as a
// total-order tie breaker. The zero Time is "before everything".
type Time struct {
	Counter uint64 `json:"counter"`
	Replica string `json:"replica"`
}

// Less imposes the total order (counter, then replica).
func (t Time) Less(other Time) bool {
	if t.Counter != other.Counter {
		return t.Counter < other.Counter
	}
	return t.Replica < other.Replica
}

// Compare is the three-way form of Less, for slices.SortFunc.
func (t Time) Compare(other Time) int {
	if c := cmp.Compare(t.Counter, other.Counter); c != 0 {
		return c
	}
	return strings.Compare(t.Replica, other.Replica)
}

// Equal reports timestamp identity.
func (t Time) Equal(other Time) bool { return t == other }

// IsZero reports whether the timestamp is the bottom element.
func (t Time) IsZero() bool { return t == Time{} }

// String renders "counter@replica".
func (t Time) String() string {
	return strconv.FormatUint(t.Counter, 10) + "@" + t.Replica
}

// ParseTime parses the String form back into a Time.
func ParseTime(s string) (Time, error) {
	at := strings.IndexByte(s, '@')
	if at < 0 {
		return Time{}, fmt.Errorf("crdt: malformed time %q", s)
	}
	c, err := strconv.ParseUint(s[:at], 10, 64)
	if err != nil {
		return Time{}, fmt.Errorf("crdt: malformed time %q: %w", s, err)
	}
	return Time{Counter: c, Replica: s[at+1:]}, nil
}

// Clock issues monotonically increasing Times for one replica and witnesses
// remote times so that later local times dominate everything seen.
type Clock struct {
	replica string
	counter uint64
}

// NewClock returns a clock bound to a replica identity.
func NewClock(replica string) *Clock {
	return &Clock{replica: replica}
}

// Now issues the next local timestamp.
func (c *Clock) Now() Time {
	c.counter++
	return Time{Counter: c.counter, Replica: c.replica}
}

// Witness observes a remote timestamp, advancing the local counter past it.
func (c *Clock) Witness(t Time) {
	if t.Counter > c.counter {
		c.counter = t.Counter
	}
}

// Replica returns the clock's replica identity.
func (c *Clock) Replica() string { return c.replica }

// Counter exposes the current counter (for checkpointing).
func (c *Clock) Counter() uint64 { return c.counter }

// SetCounter restores the counter (for checkpoint reset).
func (c *Clock) SetCounter(n uint64) { c.counter = n }
