// Incremental-hashing property suite (DESIGN.md §4.15): the replay hot
// path serves canonical snapshots from per-replica version-keyed caches,
// so a subject that mutates state without bumping its StateVersion would
// silently ship stale bytes — context hashes would go wrong without any
// behavioral test failing. This file drives every subject through long
// randomized op/sync/checkpoint/reset/restore sequences on two lockstep
// clusters — one incremental, one forced to full re-serialization — and
// pins that their canonical snapshots, hash-of-hashes digests, and
// fingerprints never diverge, that every sync payload the incremental
// cluster's version-keyed cache serves is byte-identical to the one the
// state builds on the spot, and that restoring from a delta (buffer-
// sharing) snapshot equals restoring from a full one.
package canon

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/replica"
	"github.com/er-pi/erpi/internal/subjects/crdts"
	"github.com/er-pi/erpi/internal/subjects/orbit"
	"github.com/er-pi/erpi/internal/subjects/replicadb"
	"github.com/er-pi/erpi/internal/subjects/roshi"
	"github.com/er-pi/erpi/internal/subjects/yorkie"
)

// incCase is one subject variant under randomized exercise: a state
// factory and a generator of ops valid for that subject (ops may fail
// with deterministic errors; both lockstep clusters must agree).
type incCase struct {
	name  string
	fresh func(id string) replica.State
	op    func(r *rand.Rand) replica.Op
}

// incCases covers every subject twice: default flags plus the bug-flag
// variant whose mutation pattern is hardest on version counting (orbit's
// BugMutateAfterHash annotates the outgoing SyncPayload only, which must
// leave the sender's version alone; the misconception-#1 flags rewrite
// state wholesale on sync).
func incCases() []incCase {
	keys := []string{"feed", "likes", "saved"}
	members := []string{"m1", "m2", "m3", "m4"}
	words := []string{"alpha", "beta", "gamma", "delta"}

	roshiOp := func(r *rand.Rand) replica.Op {
		k, m := keys[r.Intn(len(keys))], members[r.Intn(len(members))]
		score := strconv.Itoa(r.Intn(16))
		switch r.Intn(4) {
		case 0:
			return replica.Op{Name: "delete", Args: []string{k, m, score}}
		case 1:
			return replica.Op{Name: "selectAll", Args: []string{k}}
		default:
			return replica.Op{Name: "insert", Args: []string{k, m, score}}
		}
	}
	crdtsOp := func(r *rand.Rand) replica.Op {
		w := words[r.Intn(len(words))]
		switch r.Intn(7) {
		case 0:
			return replica.Op{Name: "todo.create", Args: []string{w}}
		case 1:
			return replica.Op{Name: "tag.add", Args: []string{w}}
		case 2:
			return replica.Op{Name: "tag.remove", Args: []string{w}}
		case 3:
			return replica.Op{Name: "counter.inc", Args: []string{strconv.Itoa(1 + r.Intn(4))}}
		case 4:
			return replica.Op{Name: "counter.dec", Args: []string{strconv.Itoa(1 + r.Intn(2))}}
		case 5:
			return replica.Op{Name: "list.insert", Args: []string{strconv.Itoa(r.Intn(3)), w}}
		default:
			return replica.Op{Name: "list.read"}
		}
	}
	dbOp := func(r *rand.Rand) replica.Op {
		k := "k" + strconv.Itoa(r.Intn(6))
		switch r.Intn(7) {
		case 0:
			return replica.Op{Name: "delete", Args: []string{k}}
		case 1:
			return replica.Op{Name: "fetch", Args: []string{strconv.Itoa(1 + r.Intn(3))}}
		case 2:
			return replica.Op{Name: "drain"}
		case 3:
			return replica.Op{Name: "transferComplete"}
		case 4:
			return replica.Op{Name: "transferIncremental"}
		case 5:
			return replica.Op{Name: "readSink"}
		default:
			return replica.Op{Name: "insert", Args: []string{k, words[r.Intn(len(words))]}}
		}
	}
	orbitOp := func(r *rand.Rand) replica.Op {
		switch r.Intn(8) {
		case 0:
			return replica.Op{Name: "read"}
		case 1:
			return replica.Op{Name: "verify"}
		case 2:
			return replica.Op{Name: "flush"}
		case 3:
			return replica.Op{Name: "reopen"}
		case 4:
			// Sealing changes what BugMutateAfterHash ships, not the log.
			return replica.Op{Name: "seal"}
		case 5:
			return replica.Op{Name: "close"}
		default:
			return replica.Op{Name: "append", Args: []string{words[r.Intn(len(words))]}}
		}
	}
	yorkieOp := func(r *rand.Rand) replica.Op {
		w := words[r.Intn(len(words))]
		switch r.Intn(5) {
		case 0:
			return replica.Op{Name: "setObject", Args: []string{"meta"}}
		case 1:
			return replica.Op{Name: "deleteKey", Args: []string{"k" + strconv.Itoa(r.Intn(3))}}
		case 2:
			return replica.Op{Name: "arrInsert", Args: []string{"0", w}}
		case 3:
			return replica.Op{Name: "read", Args: []string{"k0"}}
		default:
			return replica.Op{Name: "set", Args: []string{"k" + strconv.Itoa(r.Intn(3)), w}}
		}
	}

	return []incCase{
		{"roshi", func(string) replica.State { return roshi.New(roshi.Flags{}) }, roshiOp},
		{"roshi/arrival-wins", func(string) replica.State { return roshi.New(roshi.Flags{ArrivalWins: true}) }, roshiOp},
		{"crdts", func(id string) replica.State { return crdts.New(id, crdts.Flags{}) }, crdtsOp},
		{"crdts/last-sync-wins", func(id string) replica.State { return crdts.New(id, crdts.Flags{LastSyncWins: true}) }, crdtsOp},
		{"replicadb", func(string) replica.State { return replicadb.New(replicadb.Flags{}) }, dbOp},
		{"replicadb/no-resolution", func(string) replica.State { return replicadb.New(replicadb.Flags{NoVersionResolution: true}) }, dbOp},
		{"orbit", func(id string) replica.State { return orbit.New(id, orbit.Flags{}) }, orbitOp},
		{"orbit/mutate-after-hash", func(id string) replica.State { return orbit.New(id, orbit.Flags{BugMutateAfterHash: true}) }, orbitOp},
		{"yorkie", func(id string) replica.State { return yorkie.New(id, yorkie.Flags{}) }, yorkieOp},
		{"yorkie/no-stamp-resolution", func(id string) replica.State { return yorkie.New(id, yorkie.Flags{NoStampResolution: true}) }, yorkieOp},
	}
}

var incReplicas = []event.ReplicaID{"A", "B", "C"}

func newIncCluster(c incCase, full bool) *replica.Cluster {
	states := make(map[event.ReplicaID]replica.State, len(incReplicas))
	for _, id := range incReplicas {
		states[id] = c.fresh(string(id))
	}
	cl := replica.NewCluster(states)
	cl.SetFullHashing(full)
	return cl
}

// compareClusters pins property (a): the incremental cluster's canonical
// snapshot — bytes, per-replica buffer hashes, and the hash-of-hashes
// digest — is identical to the full-recompute cluster's.
func compareClusters(t *testing.T, step int, inc, ref *replica.Cluster) (*replica.ClusterSnapshot, *replica.ClusterSnapshot) {
	t.Helper()
	si, err := inc.CanonicalSnapshot()
	if err != nil {
		t.Fatalf("step %d: incremental snapshot: %v", step, err)
	}
	sr, err := ref.CanonicalSnapshot()
	if err != nil {
		t.Fatalf("step %d: full snapshot: %v", step, err)
	}
	if si.Hash() != sr.Hash() {
		t.Fatalf("step %d: incremental hash diverged from full recompute:\n inc: %x\n ref: %x",
			step, si.Hash(), sr.Hash())
	}
	if !bytes.Equal(si.AppendCanonical(nil), sr.AppendCanonical(nil)) {
		t.Fatalf("step %d: canonical bytes diverged between incremental and full snapshots", step)
	}
	if got, want := fmt.Sprint(inc.Fingerprints()), fmt.Sprint(ref.Fingerprints()); got != want {
		t.Fatalf("step %d: cached fingerprints diverged:\n inc: %s\n ref: %s", step, got, want)
	}
	if inc.Converged() != ref.Converged() {
		t.Fatalf("step %d: convergence verdict diverged", step)
	}
	return si, sr
}

// TestIncrementalHashingParity is the randomized lockstep exercise: two
// clusters per subject variant — incremental vs. forced-full — run the
// same op/sync/checkpoint/reset/restore sequence from a fixed seed, and
// every probe point must agree on all digests. Dirty accounting is also
// sanity-checked: the incremental cluster must actually reuse buffers.
func TestIncrementalHashingParity(t *testing.T) {
	const steps = 400
	for _, c := range incCases() {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(0x5eed + int64(len(c.name))))
			inc := newIncCluster(c, false)
			ref := newIncCluster(c, true)
			if err := inc.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := ref.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			type captured struct {
				step     int
				inc, ref *replica.ClusterSnapshot
			}
			var caps []captured
			var reused int64
			// last is the incremental cluster's last payload per sender;
			// served counts payloads the cache handed out again.
			last := make(map[event.ReplicaID][]byte)
			served := 0

			for step := 0; step < steps; step++ {
				switch k := r.Intn(20); {
				case k < 11: // apply one op on one replica, both clusters
					id := incReplicas[r.Intn(len(incReplicas))]
					op := c.op(r)
					ni, _ := inc.Node(id)
					nr, _ := ref.Node(id)
					_, errI := ni.State.Apply(op)
					_, errR := nr.State.Apply(op)
					if (errI == nil) != (errR == nil) {
						t.Fatalf("step %d: op %s error diverged: inc=%v ref=%v", step, op.Name, errI, errR)
					}
				case k < 15: // sync src -> dst, both clusters
					src := incReplicas[r.Intn(len(incReplicas))]
					dst := incReplicas[r.Intn(len(incReplicas))]
					if src == dst {
						continue
					}
					// The incremental side ships through the cluster's
					// payload cache, the reference straight from the state.
					nsI, _ := inc.Node(src)
					nsR, _ := ref.Node(src)
					pI, err := inc.SyncPayload(nsI)
					if err != nil {
						t.Fatalf("step %d: cached sync payload: %v", step, err)
					}
					pR, err := nsR.State.SyncPayload()
					if err != nil {
						t.Fatalf("step %d: sync payload: %v", step, err)
					}
					if !bytes.Equal(pI, pR) {
						t.Fatalf("step %d: cached payload of %s diverged from a fresh one:\n inc: %x\n ref: %x", step, src, pI, pR)
					}
					if prev := last[src]; len(pI) > 0 && len(prev) > 0 && &prev[0] == &pI[0] {
						served++
					}
					last[src] = pI
					payloads := [2][]byte{pI, pR}
					var errs [2]error
					for i, cl := range []*replica.Cluster{inc, ref} {
						nd, _ := cl.Node(dst)
						// Syncs may fail by subject constraint (e.g. orbit's
						// clock-skew guard); that is part of the exercised
						// surface — both clusters just have to agree.
						errs[i] = nd.State.ApplySync(payloads[i])
					}
					if (errs[0] == nil) != (errs[1] == nil) {
						t.Fatalf("step %d: sync error diverged: inc=%v ref=%v", step, errs[0], errs[1])
					}
				case k < 16: // re-checkpoint one replica
					id := incReplicas[r.Intn(len(incReplicas))]
					if err := inc.CheckpointNode(id); err != nil {
						t.Fatal(err)
					}
					if err := ref.CheckpointNode(id); err != nil {
						t.Fatal(err)
					}
				case k < 17: // crash-restore one replica to its checkpoint
					id := incReplicas[r.Intn(len(incReplicas))]
					if err := inc.ResetNode(id); err != nil {
						t.Fatal(err)
					}
					if err := ref.ResetNode(id); err != nil {
						t.Fatal(err)
					}
				case k < 18 && len(caps) > 0: // rewind both clusters to a captured snapshot
					cp := caps[r.Intn(len(caps))]
					if err := inc.RestoreSnapshot(cp.inc); err != nil {
						t.Fatal(err)
					}
					if err := ref.RestoreSnapshot(cp.ref); err != nil {
						t.Fatal(err)
					}
				default: // probe: snapshots must agree; keep them for later rewinds
					si, sr := compareClusters(t, step, inc, ref)
					reused += si.Reused
					if sr.Dirty != len(incReplicas) && len(caps) > 0 {
						t.Fatalf("step %d: full-hashing cluster reported %d dirty, want all %d",
							step, sr.Dirty, len(incReplicas))
					}
					caps = append(caps, captured{step, si, sr})
				}
			}

			si, _ := compareClusters(t, steps, inc, ref)
			if reused+si.Reused == 0 {
				t.Fatal("incremental cluster never reused a cached buffer — version counting is not wired")
			}
			if served == 0 {
				t.Fatal("incremental cluster never served a cached sync payload")
			}

			// Property (b): restoring a FRESH cluster from a delta
			// (buffer-sharing) snapshot equals restoring one from the full
			// cluster's independently serialized snapshot — including
			// snapshots captured long before later mutations, which pins
			// StateBuf immutability.
			for _, cp := range caps {
				fromDelta := newIncCluster(c, false)
				if err := fromDelta.RestoreSnapshot(cp.inc); err != nil {
					t.Fatalf("restore from delta snapshot (step %d): %v", cp.step, err)
				}
				fromFull := newIncCluster(c, false)
				if err := fromFull.RestoreSnapshot(cp.ref); err != nil {
					t.Fatalf("restore from full snapshot (step %d): %v", cp.step, err)
				}
				compareClusters(t, cp.step, fromDelta, fromFull)
				sd, err := fromDelta.CanonicalSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				if sd.Hash() != cp.inc.Hash() {
					t.Fatalf("snapshot from step %d did not survive later mutation: restore hash %x, captured %x",
						cp.step, sd.Hash(), cp.inc.Hash())
				}
			}
		})
	}
}
