package coordinator

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"

	"github.com/er-pi/erpi/internal/runner"
)

// Digest accumulates interleaving-key → outcome-signature pairs and folds
// them into an order-insensitive hash. Two explorations that executed the
// same set of interleavings with the same behaviours produce byte-identical
// sums regardless of execution order, worker count, crashes, or resume —
// it is the parity pin the distributed engine is held to against
// sequential Workers=1 runs.
type Digest struct {
	mu   sync.Mutex
	sigs map[string]string
}

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{sigs: make(map[string]string)} }

// Observe folds one outcome in; it has the runner.Config.OnOutcome
// signature so a sequential baseline can feed a digest directly.
func (d *Digest) Observe(o *runner.Outcome) {
	d.Add(o.Interleaving.Key(), runner.OutcomeSignature(o))
}

// Add folds a precomputed key/signature pair in (the coordinator's resume
// path replays signatures from results.log). Adding
// the same key twice keeps the last signature; equal-behaviour re-executions
// are therefore idempotent.
func (d *Digest) Add(key, sig string) {
	d.mu.Lock()
	d.sigs[key] = sig
	d.mu.Unlock()
}

// Len is the number of distinct interleavings folded in.
func (d *Digest) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sigs)
}

// Sum renders the digest: sha256 over the sorted key→signature entries.
func (d *Digest) Sum() string {
	d.mu.Lock()
	keys := make([]string, 0, len(d.sigs))
	for k := range d.sigs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write([]byte(d.sigs[k]))
		h.Write([]byte{'\n'})
	}
	d.mu.Unlock()
	return hex.EncodeToString(h.Sum(nil))
}
