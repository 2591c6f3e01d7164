// Package orbit re-implements the replication core of OrbitDB (evaluation
// subject 2): an eventually consistent, peer-to-peer append-only log
// database over a Merkle-CRDT (internal/merkle). Peers append payload
// entries, exchange entries to merge, and read the log in a linearized
// order.
//
// Five seedable defects reproduce the paper's OrbitDB bug benchmarks:
//
//   - BugTieBreaker (issue #513): the linearization tie-breaker is not a
//     total order for entries with equal clock and identity, so reads
//     depend on internal arrival order.
//   - BugFutureClock (issue #512): joins accept entries with Lamport
//     clocks set arbitrarily far into the future, halting progress.
//   - BugStaleHeadCache (issue #1153): appends use a cached head set that
//     is not refreshed by joins, producing entries that fail the access
//     check ("could not append entry although write access is granted").
//   - BugMutateAfterHash (issue #583): a sync annotates the newest entry
//     after it was hashed — on the outgoing payload only — so the heads a
//     receiver gets stop matching their hashes.
//   - BugLockLeak (issue #557): the repo folder lock is not released when
//     a close interleaves before the flush, so reopening fails.
package orbit

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/er-pi/erpi/internal/merkle"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/wire"
)

// Flags seed the known defects.
type Flags struct {
	BugTieBreaker      bool `json:"bug_tie_breaker"`
	BugFutureClock     bool `json:"bug_future_clock"`
	BugStaleHeadCache  bool `json:"bug_stale_head_cache"`
	BugMutateAfterHash bool `json:"bug_mutate_after_hash"`
	BugLockLeak        bool `json:"bug_lock_leak"`
	// MaxClockSkew guards joins when BugFutureClock is off (0 = a default
	// of 1000).
	MaxClockSkew uint64 `json:"max_clock_skew,omitempty"`
}

// DB is one peer's database.
type DB struct {
	flags    Flags
	identity string
	log      *merkle.Log
	// headCache is the (possibly stale) head set used by appends when
	// BugStaleHeadCache is set.
	headCache []string
	// repoLocked models the on-disk repo folder lock of issue #557.
	repoLocked bool
	// dirty marks an unflushed write (the lock holder).
	dirty bool
	// open models whether the repo is currently open.
	open bool
	// lastHash is the most recent locally appended entry; sealed reports
	// whether it was flushed to disk. BugMutateAfterHash annotates only
	// unsealed entries, so the corruption depends on whether a sync
	// interleaves between the append and its seal.
	lastHash string
	sealed   bool
	// ver counts mutations for snapshot- and payload-cache invalidation
	// (replica.Versioned). Every exported mutator bumps it, so a caller
	// outside Apply keeps the contract too; read/verify/clockBelow and
	// SyncPayload are pure (the issue-#583 annotation rides the outgoing
	// bytes only).
	ver uint64

	// Scratch, never state: Restore's log, Snapshot's order, decoded entries.
	spare    *merkle.Log
	sorted   []*merkle.Entry
	incoming []merkle.Entry
	joins    []*merkle.Entry
}

var (
	_ replica.State     = (*DB)(nil)
	_ replica.Versioned = (*DB)(nil)
)

// StateVersion implements replica.Versioned.
func (d *DB) StateVersion() uint64 { return d.ver }

// New returns an empty, open database for the identity.
func New(identity string, flags Flags) *DB {
	tie := merkle.TieBreakIdentityHash
	if flags.BugTieBreaker {
		tie = merkle.TieBreakIdentityOnly
	}
	log := merkle.NewLog(identity, tie)
	if !flags.BugFutureClock {
		skew := flags.MaxClockSkew
		if skew == 0 {
			skew = 1000
		}
		log.MaxClockSkew = skew
	}
	return &DB{flags: flags, identity: identity, log: log, open: true}
}

// Append adds a payload entry. With BugStaleHeadCache the entry's parents
// come from the cached head set instead of the live one; an append whose
// parents miss current heads is rejected by the access check.
func (d *DB) Append(payload string) error {
	d.ver++
	if !d.open {
		// A closed repo rejects writes; during exploration a close can
		// legitimately interleave before an append, so this is a failed op
		// rather than a fatal error.
		return replica.ErrFailedOp
	}
	if d.flags.BugLockLeak {
		if d.repoLocked && !d.dirty {
			return fmt.Errorf("orbit: repo folder locked (issue #557)")
		}
		d.repoLocked, d.dirty = true, true
	}
	if d.flags.BugStaleHeadCache {
		live := d.log.Heads()
		if d.headCache == nil {
			d.headCache = live
		}
		if !sameStrings(d.headCache, live) {
			// Defect: the cached heads diverge from the live heads after a
			// join; the access check rejects the append (issue #1153).
			d.headCache = nil // the failed attempt invalidates the cache
			return replica.ErrFailedOp
		}
		entry := d.log.Append(payload)
		d.headCache = []string{entry.Hash}
		d.lastHash, d.sealed = entry.Hash, false
		return nil
	}
	entry := d.log.Append(payload)
	d.lastHash, d.sealed = entry.Hash, false
	return nil
}

// Seal marks the latest append as flushed; sealed entries are safe from
// the issue-#583 post-hash mutation.
func (d *DB) Seal() {
	d.ver++
	d.sealed = true
}

// Flush releases the repo lock (issue #557's missing step when a close
// interleaves first).
func (d *DB) Flush() {
	d.ver++
	if !d.flags.BugLockLeak {
		d.dirty = false
		d.repoLocked = false
		return
	}
	// Defect path: the unlock only runs while the repo is open; a flush
	// that lands after the close is a complete no-op, leaking both the
	// dirty marker and the folder lock.
	if d.open {
		d.dirty = false
		d.repoLocked = false
	}
}

// Close closes the repo. With BugLockLeak a close before the flush leaves
// the folder lock held.
func (d *DB) Close() {
	d.ver++
	d.open = false
	if !d.flags.BugLockLeak {
		d.repoLocked = false
	}
}

var errLockLeaked = errors.New("orbit: repo folder keeps getting locked (issue #557)")

// Reopen reopens the repo, failing if the folder lock leaked.
func (d *DB) Reopen() error {
	d.ver++
	if d.repoLocked && d.dirty {
		return errLockLeaked
	}
	d.open = true
	return nil
}

// Read returns the linearized payloads.
func (d *DB) Read() []string { return d.log.Payloads() }

// Clock exposes the local Lamport clock.
func (d *DB) Clock() uint64 { return d.log.Clock() }

// AppendWithClock force-appends an entry with an explicit clock — the
// far-future append of issue #512 (a buggy or malicious peer). The forged
// entry enters the local DAG directly, bypassing the skew guard the way a
// peer's own writes do.
func (d *DB) AppendWithClock(payload string, clock uint64) *merkle.Entry {
	d.ver++
	e := &merkle.Entry{Payload: payload, Clock: clock, Identity: d.identity, Parents: d.log.Heads()}
	e.Hash = e.ComputeHash()
	guard := d.log.MaxClockSkew
	d.log.MaxClockSkew = 0
	_ = d.log.Join([]*merkle.Entry{e})
	d.log.MaxClockSkew = guard
	return e
}

// Apply implements replica.State. Ops:
//
//	append(payload)         append an entry
//	appendFuture(payload, clock) forge a far-future entry (issue #512 seed)
//	read()                  -> comma-joined linearized payloads
//	verify()                -> "ok" or the list of corrupt entry hashes
//	flush()                 release the repo lock
//	close()                 close the repo
//	reopen()                reopen the repo
//	clockBelow(limit)       -> "ok" if the clock is under limit
func (d *DB) Apply(op replica.Op) (string, error) {
	switch op.Name {
	case "append":
		if err := d.Append(op.Args[0]); err != nil {
			return "", err
		}
		return "", nil
	case "appendFuture":
		var clock uint64
		if _, err := fmt.Sscanf(op.Args[1], "%d", &clock); err != nil {
			return "", fmt.Errorf("orbit: bad clock: %w", err)
		}
		d.AppendWithClock(op.Args[0], clock)
		return "", nil
	case "read":
		var buf [256]byte
		return string(d.log.AppendPayloads(buf[:0], ",")), nil
	case "verify":
		return d.verifyAll(), nil
	case "flush":
		d.Flush()
		return "", nil
	case "seal":
		d.Seal()
		return "", nil
	case "close":
		d.Close()
		return "", nil
	case "reopen":
		if err := d.Reopen(); err != nil {
			return "", replica.ErrFailedOp
		}
		return "reopened", nil
	case "clockBelow":
		var limit uint64
		if _, err := fmt.Sscanf(op.Args[0], "%d", &limit); err != nil {
			return "", fmt.Errorf("orbit: bad limit: %w", err)
		}
		if d.log.Clock() < limit {
			return "ok", nil
		}
		return fmt.Sprintf("clock=%d", d.log.Clock()), nil
	default:
		return "", fmt.Errorf("orbit: unknown op %s", op.Name)
	}
}

func (d *DB) verifyAll() string {
	var bad []string
	for _, e := range d.log.View() {
		if !e.Verified() {
			bad = append(bad, e.Hash[:8])
		}
	}
	if len(bad) == 0 {
		return "ok"
	}
	sort.Strings(bad)
	return "corrupt:" + strings.Join(bad, ",")
}

// SyncPayload implements replica.State: every entry of the DAG. With
// BugMutateAfterHash an UNSEALED newest local entry is annotated after
// hashing in the outgoing payload, so the receiver sees a head whose hash
// doesn't match (issue #583) — but only in interleavings where the sync
// overtakes the seal. The local log is never modified.
func (d *DB) SyncPayload() ([]byte, error) {
	entries := d.log.View()
	if d.flags.BugMutateAfterHash && !d.sealed {
		entries = append(d.sorted[:0], entries...)
		for i, e := range entries {
			if e.Hash == d.lastHash && !strings.HasSuffix(e.Payload, "#synced") {
				annotated := *e
				annotated.Payload += "#synced" // mutated after hashing: hash now stale
				entries[i] = &annotated
			}
		}
	}
	return appendEntries(entries), nil
}

// appendEntries encodes the entry count, then each entry's wire form.
func appendEntries(entries []*merkle.Entry) []byte {
	// 160 bytes an entry is a guess (its 64-byte hash, one parent, short
	// payload), plus room for a snapshot's trailer; append grows past it.
	b := wire.AppendUvarint(make([]byte, 0, 96+160*len(entries)), uint64(len(entries)))
	for _, e := range entries {
		b = e.AppendBinary(b)
	}
	return b
}

// readEntries decodes an entry list into scratch, valid until the next
// call, skipping what log already holds.
func (d *DB) readEntries(r *wire.Reader, log *merkle.Log) []*merkle.Entry {
	n := r.Count(merkle.MinEntryBytes)
	d.incoming = slices.Grow(d.incoming[:0], n)[:n]
	d.joins = d.joins[:0]
	for i := range d.incoming {
		if !log.ReadUnheld(r, &d.incoming[i]) {
			d.joins = append(d.joins, &d.incoming[i])
		}
	}
	return d.joins
}

// ApplySync implements replica.State: join the remote entries. Entries
// failing verification poison the join (surfaced as a failed op so the
// replay records it); far-future clocks are rejected unless BugFutureClock
// disabled the guard. Entries the log already holds are only viewed. A
// join that adds no entry changes nothing, so it leaves the version alone
// too (DESIGN.md §4.15).
func (d *DB) ApplySync(payload []byte) error {
	r := wire.NewReader(payload)
	entries := d.readEntries(r, d.log)
	if err := r.Done(); err != nil {
		return fmt.Errorf("orbit: sync payload: %w", err)
	}
	held := d.log.Len()
	err := d.log.Join(entries)
	if d.log.Len() != held {
		d.ver++
	}
	if err != nil {
		return replica.ErrFailedOp
	}
	return nil
}

// Snapshot implements replica.State: the entries, the head cache, the
// three repo flags (locked, dirty, open), the last appended hash and its
// sealed flag. With the correct tie-breaker the DAG's local arrival order
// is incidental (linearization uses clock, identity, and hash), so entries
// are serialized in canonical (Clock, Identity, Hash) order — equal
// logical states snapshot to equal bytes. With BugTieBreaker arrival order
// IS behavior (issue #513) and is kept verbatim so a Restore(Snapshot())
// round trip replays faithfully.
func (d *DB) Snapshot() ([]byte, error) {
	entries := d.log.View()
	if !d.flags.BugTieBreaker {
		entries = append(d.sorted[:0], entries...)
		slices.SortFunc(entries, func(a, b *merkle.Entry) int {
			return cmp.Or(
				cmp.Compare(a.Clock, b.Clock),
				strings.Compare(a.Identity, b.Identity),
				strings.Compare(a.Hash, b.Hash),
			)
		})
	}
	b := appendEntries(entries)
	b = wire.AppendStrings(b, d.headCache)
	b = wire.AppendBool(b, d.repoLocked)
	b = wire.AppendBool(b, d.dirty)
	b = wire.AppendBool(b, d.open)
	b = wire.AppendString(b, d.lastHash)
	b = wire.AppendBool(b, d.sealed)
	return b, nil
}

// Restore implements replica.State.
func (d *DB) Restore(data []byte) error {
	if d.spare == nil {
		d.spare = New(d.identity, d.flags).log
	}
	d.spare.Reset()
	r := wire.NewReader(data)
	entries := d.readEntries(r, d.spare)
	headCache := r.Strings()
	locked, dirty, open := r.Bool(), r.Bool(), r.Bool()
	lastHash, sealed := r.String(), r.Bool()
	if err := r.Done(); err != nil {
		return fmt.Errorf("orbit: snapshot: %w", err)
	}
	// Bypass guards while restoring our own checkpoint.
	skew := d.spare.MaxClockSkew
	d.spare.MaxClockSkew = 0
	err := d.spare.Join(entries)
	d.spare.MaxClockSkew = skew
	if err != nil {
		return fmt.Errorf("orbit: snapshot join: %w", err)
	}
	d.log, d.spare = d.spare, d.log
	d.headCache = headCache
	d.repoLocked, d.dirty, d.open = locked, dirty, open
	d.lastHash, d.sealed = lastHash, sealed
	d.ver++
	return nil
}

// Fingerprint implements replica.State: the linearized payloads plus
// integrity and lock status.
func (d *DB) Fingerprint() string {
	var buf [256]byte
	b := append(d.log.AppendPayloads(buf[:0], ","), '|')
	return string(append(b, d.verifyAll()...))
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
