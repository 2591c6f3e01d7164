package runner

import (
	"strconv"

	"github.com/er-pi/erpi/internal/interleave"
)

// exploredSet deduplicates interleaving keys under a memory bound. Keys are
// stored as 64-bit FNV-1a fingerprints rather than full strings, so one
// entry costs a fixed ~8 bytes of payload regardless of event-log size, and
// the set is capped at limit entries.
//
// Trade-offs (documented because both degrade dedup, never soundness):
//
//   - A fingerprint collision (~2⁻⁶⁴ per pair) makes a never-executed
//     interleaving look already explored and it is skipped.
//   - Once the cap is reached the set stops recording NEW keys — membership
//     tests still see everything recorded so far, but an order first seen
//     after saturation may be executed (and counted) again. Re-execution is
//     idempotent (the cluster resets before every interleaving), so long
//     ModeRand/ModeFuzz runs degrade to best-effort dedup instead of
//     growing without limit.
type exploredSet struct {
	limit     int
	keys      map[uint64]struct{}
	saturated bool
}

// defaultMaxExploredKeys bounds the dedup set at ~1M entries (tens of MB)
// unless Config.MaxExploredKeys overrides it.
const defaultMaxExploredKeys = 1 << 20

// newExploredSet builds a set capped at limit entries; zero means the
// default cap, negative means unbounded.
func newExploredSet(limit int) *exploredSet {
	if limit == 0 {
		limit = defaultMaxExploredKeys
	}
	return &exploredSet{limit: limit, keys: make(map[uint64]struct{})}
}

// fnv1a folds s into the 64-bit FNV-1a hash h (fnvOffset64 to start one).
func fnv1a[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

const fnvOffset64 = 14695981039346656037

func fingerprint(key string) uint64 { return fnv1a(fnvOffset64, key) }

// fingerprintOf is fingerprint(il.Key()) without rendering the key: it
// hashes the same bytes — decimal IDs joined by commas — through a stack
// buffer, so keys loaded from a journal match interleavings seen live.
func fingerprintOf(il interleave.Interleaving) uint64 {
	h := uint64(fnvOffset64)
	var digits [20]byte // a 64-bit int in base 10, sign included
	for i, id := range il {
		if i > 0 {
			h = fnv1a(h, ",")
		}
		h = fnv1a(h, strconv.AppendInt(digits[:0], int64(id), 10))
	}
	return h
}

// Has reports whether key was recorded.
func (e *exploredSet) Has(key string) bool {
	_, ok := e.keys[fingerprint(key)]
	return ok
}

// Add records key, unless the set is saturated. Reports whether the key was
// actually recorded.
func (e *exploredSet) Add(key string) bool { return e.add(fingerprint(key)) }

func (e *exploredSet) add(fp uint64) bool {
	if e.limit > 0 && len(e.keys) >= e.limit {
		e.saturated = true
		return false
	}
	e.keys[fp] = struct{}{}
	return true
}

// seen is Has(il.Key()) and, for a fresh interleaving, Add(il.Key()) — the
// driver's dedup step — hashing once and allocating nothing.
func (e *exploredSet) seen(il interleave.Interleaving) (dup bool) {
	fp := fingerprintOf(il)
	if _, dup = e.keys[fp]; !dup {
		e.add(fp)
	}
	return dup
}

// Len returns the number of recorded fingerprints.
func (e *exploredSet) Len() int { return len(e.keys) }

// Saturated reports whether the cap was ever hit.
func (e *exploredSet) Saturated() bool { return e.saturated }
