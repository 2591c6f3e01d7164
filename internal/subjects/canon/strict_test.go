// Decode strictness (DESIGN.md §4.16): every subject's Restore and
// ApplySync must reject anything that is not exactly one valid encoding —
// the executor quarantines an interleaving whose truncated payload fails
// to decode, and it can only do that if no strict prefix of a payload is
// itself a payload. This file checks that over states the incremental
// suite's random op sequences reach, and fuzzes the decoders with
// arbitrary bytes.
package canon

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/er-pi/erpi/internal/replica"
)

// reached drives three replicas of one subject variant through steps
// random ops and syncs (the incremental suite's mix, minus the cluster
// plumbing) and returns them.
func reached(t testing.TB, c incCase, seed int64, steps int) []replica.State {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	states := make([]replica.State, len(incReplicas))
	for i, id := range incReplicas {
		states[i] = c.fresh(string(id))
	}
	for step := 0; step < steps; step++ {
		if r.Intn(4) > 0 {
			// Ops may fail by subject constraint; that is part of the mix.
			_, _ = states[r.Intn(len(states))].Apply(c.op(r))
			continue
		}
		src, dst := r.Intn(len(states)), r.Intn(len(states))
		if src == dst {
			continue
		}
		payload, err := states[src].SyncPayload()
		if err != nil {
			t.Fatalf("step %d: SyncPayload: %v", step, err)
		}
		_ = states[dst].ApplySync(payload)
	}
	return states
}

// mutations yields every strict prefix of data and every one-byte
// extension of it.
func mutations(data []byte, yield func(what string, n int, mutated []byte)) {
	for n := 0; n < len(data); n++ {
		yield("strict prefix", n, data[:n:n])
	}
	ext := make([]byte, len(data)+1)
	copy(ext, data)
	for c := 0; c < 256; c++ {
		ext[len(data)] = byte(c)
		yield("extension by byte", c, ext)
	}
}

// TestDecodeStrictness: every strict prefix and every one-byte extension
// of Snapshot() and of SyncPayload() is rejected — as a decode error, not
// as a failed op — and leaves the receiver's Fingerprint() unchanged.
func TestDecodeStrictness(t *testing.T) {
	for _, c := range incCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, steps := range []int{0, 25, 80} {
				for i, src := range reached(t, c, 0x57c1+int64(steps), steps) {
					snapshot := snap(t, src)
					payload, err := src.SyncPayload()
					if err != nil {
						t.Fatal(err)
					}
					// The receiver starts as a copy of the sender, so a decoder
					// that applied a damaged input before rejecting it would
					// have something to damage.
					dst := c.fresh(string(incReplicas[i]))
					if err := dst.Restore(snapshot); err != nil {
						t.Fatalf("valid snapshot rejected: %v", err)
					}
					want := dst.Fingerprint()
					check := func(method string, decode func([]byte) error) func(string, int, []byte) {
						return func(what string, n int, mutated []byte) {
							err := decode(mutated)
							if err == nil {
								t.Fatalf("after %d steps: %s accepted %s %d of a %d-byte encoding", steps, method, what, n, len(mutated))
							}
							if errors.Is(err, replica.ErrFailedOp) {
								t.Fatalf("after %d steps: %s took %s %d for a failed op, not a decode error", steps, method, what, n)
							}
							if got := dst.Fingerprint(); got != want {
								t.Fatalf("after %d steps: %s rejected %s %d but changed the state:\n before: %s\n after:  %s",
									steps, method, what, n, want, got)
							}
						}
					}
					mutations(snapshot, check("Restore", dst.Restore))
					mutations(payload, check("ApplySync", dst.ApplySync))
				}
			}
		})
	}
}

// FuzzDecode feeds arbitrary bytes to every subject variant's Restore or
// ApplySync. Neither may panic; and whatever state they accept must be
// one the codec can carry: Snapshot() of it restores into a fresh
// instance whose Snapshot() is the same bytes, and Fingerprint() renders.
// variant indexes incCases() (mod its length), so the committed corpus
// under testdata/fuzz/FuzzDecode is tied to that order.
func FuzzDecode(f *testing.F) {
	cases := incCases()
	for i, c := range cases {
		for _, src := range reached(f, c, 0xf022, 60) {
			snapshot, err := src.Snapshot()
			if err != nil {
				f.Fatal(err)
			}
			payload, err := src.SyncPayload()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), false, snapshot)
			f.Add(uint8(i), true, payload)
		}
	}
	f.Fuzz(func(t *testing.T, variant uint8, sync bool, data []byte) {
		c := cases[int(variant)%len(cases)]
		s := c.fresh("A")
		if sync {
			_ = s.ApplySync(data) // merged or rejected, s must stay coherent
		} else if s.Restore(data) != nil {
			return
		}
		_ = s.Fingerprint()
		first := snap(t, s)
		again := c.fresh("A")
		if err := again.Restore(first); err != nil {
			t.Fatalf("Snapshot() of an accepted state does not restore: %v", err)
		}
		if second := snap(t, again); !bytes.Equal(first, second) {
			t.Fatalf("Snapshot → Restore → Snapshot is not a fixed point:\n 1st: %x\n 2nd: %x", first, second)
		}
	})
}
