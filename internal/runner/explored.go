package runner

import (
	"strconv"

	"github.com/er-pi/erpi/internal/interleave"
)

// exploredSet is the set of interleavings a run has carved, held as 64-bit
// FNV-1a fingerprints of their keys: a fixed ~8 bytes an entry whatever
// the event log's size. Every explorer yields each interleaving at most
// once, so only a run whose explorer can start over needs one — a ModeERPi
// run with a ConstraintPoll, whose re-prune restarts the enumeration from
// the first interleaving. A fingerprint collision (~2⁻⁶⁴ per pair) makes a
// never-executed interleaving look carved, and it is skipped.
type exploredSet map[uint64]struct{}

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

// seen reports whether il was carved before and records it if not,
// hashing once and allocating nothing.
func (e exploredSet) seen(il interleave.Interleaving) (dup bool) {
	fp := fingerprintOf(il)
	if _, dup = e[fp]; !dup {
		e[fp] = struct{}{}
	}
	return dup
}
