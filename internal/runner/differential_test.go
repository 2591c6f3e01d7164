package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/fault"
	"github.com/er-pi/erpi/internal/prune"
	"github.com/er-pi/erpi/internal/replica"
)

// FuzzEngineDifferential is the engine's one differential property. The
// engine skips work five ways — the prefix restore, interior subsumption,
// the final frontier, the dead prefix and the moved-replica restore — and
// each skip must leave every outcome it does not skip exactly as it was.
// The oracle is the engine itself with both avoidance layers off, one
// worker, on full-hashing clusters. From the fuzz bytes the target draws
// a scenario, its prune config and an optional ConstraintPoll re-prune,
// the mode and cap, budgets small enough to refuse snapshots and evict
// frontiers, a worker count, run length and snapshot stride, and seeded
// faults that change outcomes (partitions, crashes with downtime). Two
// assertions read one replica: a stateless one and a cross-interleaving
// one, so every comparison below also compares stateful verdicts. It
// asserts:
//
//  1. With both layers on, at Workers 1 and at Workers N, every outcome is
//     the reference's at its index, byte for byte; the signature set,
//     Explored, FirstViolation, Exhausted, the violation and quarantine
//     sets and the fault-armed indices are the reference's; and every
//     index without an outcome is counted in Subsumed. Workers 1 on
//     incremental and on full-hashing clusters agree byte for byte,
//     Subsumed included.
//  2. With the layers off, Workers N at the drawn run length streams what
//     Workers 1 does, byte for byte.
//  3. The gated schedule (LiveWorkers 1–3 on local gates) streams what the
//     inline one does, index by index.
//
// Subsumed is not compared across worker counts: which interleavings a
// pool skips depends on which worker reached a frontier first.
func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x05\x01\x00\x10\x21\x32\x43\x14\x25\x36\x47"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDifferential(t, drawCase(t, data))
	})
}

// draws hands out a test case's choices from fuzz bytes, one byte per
// choice; past the end every choice is 0, so a short input is a small case.
type draws []byte

func (d *draws) n(k int) int {
	if len(*d) == 0 || k <= 1 {
		return 0
	}
	v := int((*d)[0]) % k
	*d = (*d)[1:]
	return v
}

func (d *draws) bool() bool { return d.n(2) == 1 }

// diffCase is one drawn configuration of the property.
type diffCase struct {
	s   Scenario
	cfg Config // the reference: layers off, Workers 1
	// tested is the replica the assertions read.
	tested event.ReplicaID
	// The layers' budgets, the pool's shape and the live session count.
	cacheBytes, tableBytes int64
	workers, live          int
	runLen                 func(left, workers int) int
	every                  int
	// extra, when non-nil, arrives through ConstraintPoll at the first poll
	// at or after the boundary index at.
	extra *prune.Config
	at    int
}

// diffElems are the set elements the generated workloads add and remove.
var diffElems = []string{"x", "y"}

// drawCase builds a case from the fuzz bytes: a workload of two or three
// LWW-set replicas and two to eight events, recorded through Recorder, and
// everything the run is configured with.
func drawCase(t *testing.T, data []byte) diffCase {
	t.Helper()
	d := draws(data)
	reps := []event.ReplicaID{"A", "B", "C"}[:2+d.n(2)]
	newCluster := func() (*replica.Cluster, error) {
		states := make(map[event.ReplicaID]replica.State, len(reps))
		for _, r := range reps {
			states[r] = newLWWSetState(string(r))
		}
		return replica.NewCluster(states), nil
	}
	rep := func() event.ReplicaID { return reps[d.n(len(reps))] }
	link := func() (event.ReplicaID, event.ReplicaID) {
		from := d.n(len(reps))
		to := (from + 1 + d.n(len(reps)-1)) % len(reps)
		return reps[from], reps[to]
	}

	cluster, _ := newCluster()
	rec := NewRecorder(cluster)
	events := 2 + d.n(7)
	for n := 0; n < events; n++ {
		switch k := d.n(5); {
		case k == 0:
			rec.Update(rep(), "set.add", diffElems[d.n(len(diffElems))])
		case k == 1: // fails when the replica does not hold the element
			rec.Update(rep(), "set.remove", diffElems[d.n(len(diffElems))])
		case k == 2:
			rec.Observe(rep(), "set.read")
		case k == 3 || n+2 > events:
			rec.Sync(link())
		default:
			rec.SyncPair(link())
			n++
		}
	}
	log, err := rec.Log()
	if err != nil {
		t.Fatal(err)
	}
	c := diffCase{s: Scenario{Name: "differential", Log: log, NewCluster: newCluster}}

	// The assertions: the tested replica ends as it did in the recorded
	// order, and as it did in the first outcome checked (c.run adds that
	// one, which keeps state, afresh to every run).
	c.tested = rep()
	want := cluster.Fingerprints()[c.tested]
	c.cfg = Config{
		Mode:       []Mode{ModeERPi, ModeDFS}[d.n(2)],
		Workers:    1,
		Assertions: []Assertion{replicaHolds{rep: c.tested, want: want}},
	}
	if d.bool() {
		c.s.Finalize = AntiEntropy(1)
	}
	if c.cfg.Mode == ModeERPi {
		c.s.Pruning.Grouping.DisableSyncPairs = d.bool()
		switch d.n(3) {
		case 1:
			c.s.Pruning.TestedReplicas = []event.ReplicaID{c.tested}
		case 2:
			c.s.Pruning.TestedReplicas = []event.ReplicaID{rep()}
		}
		if d.bool() {
			c.cfg.PollEvery = 1 + d.n(6)
			c.at = c.cfg.PollEvery * (1 + d.n(3))
			var extra prune.Config
			switch a, b := independent(log, &d); {
			case d.bool():
				extra.TestedReplicas = []event.ReplicaID{rep()}
			case a != b && d.bool():
				extra.IndependentSets = []prune.IndependenceSpec{{Events: []event.ID{a, b}}}
			default:
				a := event.ID(d.n(log.Len()))
				extra.Grouping.Extra = [][]event.ID{{a, (a + 1) % event.ID(log.Len())}}
			}
			c.extra = &extra
		}
	}
	c.cfg.MaxInterleavings = 1 + d.n(160)
	c.cfg.StopOnViolation = d.n(4) == 0
	c.cfg.MaxRetries = d.n(2) - 1 // one retry or none

	// Budgets from a few hundred bytes, which refuse snapshots and hold a
	// handful of frontiers, up to ones nothing here fills.
	c.cacheBytes = []int64{100, 300, 1000, 1 << 20}[d.n(4)]
	c.tableBytes = []int64{subsumeEntryBytes, 4 * subsumeEntryBytes, 16 * subsumeEntryBytes, 1 << 20}[d.n(4)]
	c.workers = 2 + d.n(7)
	c.runLen = []func(left, workers int) int{
		defaultRunLen,
		func(int, int) int { return 1 },
		func(int, int) int { return 3 },
		func(int, int) int { return maxRun },
		func(left, _ int) int { return left },
	}[d.n(5)]
	c.every = 1 + d.n(4)
	c.live = 1 + d.n(3)

	// Faults: crashes with and without downtime, and partitions, armed in
	// every interleaving, in one, or by a coin flip.
	if nf := d.n(3); nf > 0 {
		sched := &fault.Schedule{Seed: int64(d.n(256))}
		for i := 0; i < nf; i++ {
			ft := fault.Fault{At: d.n(log.Len()), Duration: []int{0, 1, 2, 10}[d.n(4)]}
			switch d.n(3) {
			case 1:
				ft.Interleaving = 1 + d.n(8)
			case 2:
				ft.Prob = 0.5
			}
			if d.bool() {
				ft.Kind, ft.Replica = fault.CrashReplica, rep()
			} else {
				ft.Kind = fault.Partition
				ft.A, ft.B = link()
			}
			sched.Faults = append(sched.Faults, ft)
		}
		c.cfg.Faults = sched
	}
	return c
}

// independent draws two events the log's replicas execute on their own,
// at different replicas: declared independent, they truly are, since
// neither reads or writes what the other does. a == b when the log has no
// such pair.
func independent(log *event.Log, d *draws) (a, b event.ID) {
	var local []event.ID
	for _, ev := range log.Events() {
		if ev.Kind == event.Update || ev.Kind == event.Observe {
			local = append(local, ev.ID)
		}
	}
	var pairs [][2]event.ID
	for i, x := range local {
		for _, y := range local[i+1:] {
			if log.Event(x).Replica != log.Event(y).Replica {
				pairs = append(pairs, [2]event.ID{x, y})
			}
		}
	}
	if len(pairs) == 0 {
		return 0, 0
	}
	p := pairs[d.n(len(pairs))]
	return p[0], p[1]
}

// diffRun is what one run of a case delivered.
type diffRun struct {
	res      *Result
	outcomes []*Outcome
}

// run explores the case's scenario under cfg. A poll follows every
// PollEvery-th index the run reaches, whether that index produced an
// outcome or not, so counting polls finds the boundary: the extra
// constraints arrive at the first poll at or after index c.at.
func (c diffCase) run(t *testing.T, s Scenario, cfg Config, runLen func(left, workers int) int, every int) diffRun {
	t.Helper()
	var r diffRun
	cfg.OnOutcome = func(o *Outcome) { r.outcomes = append(r.outcomes, o) }
	cfg.Assertions = append(slices.Clip(cfg.Assertions), &stateStable{rep: c.tested})
	if c.extra != nil {
		polls := 0
		cfg.ConstraintPoll = func() (prune.Config, bool, error) {
			polls++
			if polls*cfg.PollEvery < c.at || (polls-1)*cfg.PollEvery >= c.at {
				return prune.Config{}, false, nil
			}
			return *c.extra, true, nil
		}
	}
	res, err := explore(context.Background(), s, cfg, runLen, every)
	if err != nil {
		t.Fatal(err)
	}
	r.res = res
	return r
}

func checkDifferential(t *testing.T, c diffCase) {
	ref := c.run(t, fullHashing(c.s), c.cfg, defaultRunLen, defaultPrefixSnapshotEvery)

	// 2. Layers off: Workers N at the drawn run length is Workers 1.
	off := c.cfg
	off.Workers = c.workers
	offN := c.run(t, c.s, off, c.runLen, c.every)
	sameStream(t, fmt.Sprintf("layers off, Workers %d", c.workers), ref, offN)

	// 1. Layers on skip, and change nothing they do not skip.
	on := c.cfg
	on.PrefixCacheBytes, on.SubsumptionTable = c.cacheBytes, c.tableBytes
	on1 := c.run(t, c.s, on, defaultRunLen, c.every)
	skipsOnly(t, "layers on, Workers 1", ref, on1)
	on1Full := c.run(t, fullHashing(c.s), on, defaultRunLen, c.every)
	sameStream(t, "layers on, Workers 1, full hashing", on1, on1Full)
	if on1.res.Subsumed != on1Full.res.Subsumed {
		t.Fatalf("Workers 1 subsumed %d on incremental clusters, %d on full-hashing ones", on1.res.Subsumed, on1Full.res.Subsumed)
	}
	on.Workers = c.workers
	onN := c.run(t, c.s, on, c.runLen, c.every)
	skipsOnly(t, fmt.Sprintf("layers on, Workers %d", c.workers), ref, onN)

	// 3. The gated schedule is the inline one.
	live := c.cfg
	live.LiveWorkers = c.live
	gated := c.run(t, c.s, live, c.runLen, c.every)
	name := fmt.Sprintf("LiveWorkers %d", c.live)
	if a, b := streamOf(t, ref.outcomes), streamOf(t, gated.outcomes); a != b {
		t.Fatalf("%s: outcome stream\n%s\ndiffers from the inline one\n%s", name, b, a)
	}
	// The gated schedule joins every replica's error around the step's own.
	if len(gated.res.Quarantined) != len(ref.res.Quarantined) {
		t.Fatalf("%s quarantined %v, the inline schedule %v", name, quarantineKeys(gated.res), quarantineKeys(ref.res))
	}
	for i, q := range gated.res.Quarantined {
		r := ref.res.Quarantined[i]
		if q.Index != r.Index || q.Attempts != r.Attempts || !strings.Contains(q.Err.Error(), r.Err.Error()) {
			t.Fatalf("%s quarantined %v, the inline schedule %v", name, q, r)
		}
	}
	gatedRes, refRes := *gated.res, *ref.res
	gatedRes.Quarantined, refRes.Quarantined = nil, nil
	assertResultsMatch(t, &refRes, &gatedRes)
}

// sameStream fails unless got delivered want's outcomes, byte for byte,
// with the same deterministic Result.
func sameStream(t *testing.T, name string, want, got diffRun) {
	t.Helper()
	if a, b := streamOf(t, want.outcomes), streamOf(t, got.outcomes); a != b {
		t.Fatalf("%s: outcome stream\n%s\ndiffers from the reference\n%s", name, b, a)
	}
	assertResultsMatch(t, want.res, got.res)
}

// skipsOnly fails unless got is ref with some interleavings skipped: every
// outcome got delivered is ref's at that index, byte for byte, and every
// index it has none for is counted as subsumed; the signature set,
// Explored, FirstViolation, the flags, the quarantine set and the
// fault-armed indices are ref's; and the violations are ref's at the
// indices got executed, with the same distinct set.
func skipsOnly(t *testing.T, name string, ref, got diffRun) {
	t.Helper()
	want := make(map[int]*Outcome, len(ref.outcomes))
	for _, o := range ref.outcomes {
		want[o.Index] = o
	}
	executed := make(map[int]bool, len(got.outcomes))
	for _, o := range got.outcomes {
		executed[o.Index] = true
		w, ok := want[o.Index]
		if !ok {
			t.Fatalf("%s: index %d has an outcome, the reference none", name, o.Index)
		}
		if a, b := outcomeJSON(t, w), outcomeJSON(t, o); a != b {
			t.Fatalf("%s: outcome #%d\n%s\ndiffers from the reference\n%s", name, o.Index, b, a)
		}
	}
	if skipped := len(ref.outcomes) - len(got.outcomes); got.res.Subsumed != skipped {
		t.Fatalf("%s: %d indices without an outcome, %d subsumed", name, skipped, got.res.Subsumed)
	}
	if a, b := signatures(ref.outcomes), signatures(got.outcomes); !slices.Equal(a, b) {
		t.Fatalf("%s: signature set\n%s\ndiffers from the reference\n%s", name, strings.Join(b, "\n"), strings.Join(a, "\n"))
	}
	if a, b := armedIndices(ref.outcomes), armedIndices(got.outcomes); !slices.Equal(a, b) {
		t.Fatalf("%s: fault-armed indices %v, the reference %v", name, b, a)
	}
	var kept []Violation
	for _, v := range ref.res.Violations {
		if executed[v.Index] {
			kept = append(kept, v)
		}
	}
	if a, b := violationKeys(&Result{Violations: kept}), violationKeys(got.res); !slices.Equal(a, b) {
		t.Fatalf("%s: violations %v, the reference at the same indices %v", name, b, a)
	}
	if a, b := violationSet(ref.res), violationSet(got.res); !slices.Equal(a, b) {
		t.Fatalf("%s: distinct violations %v, the reference %v", name, b, a)
	}
	if ref.res.Explored != got.res.Explored || ref.res.FirstViolation != got.res.FirstViolation ||
		ref.res.Exhausted != got.res.Exhausted {
		t.Fatalf("%s: explored %d, first violation %d, exhausted %v; the reference %d, %d, %v",
			name, got.res.Explored, got.res.FirstViolation, got.res.Exhausted,
			ref.res.Explored, ref.res.FirstViolation, ref.res.Exhausted)
	}
	if a, b := quarantineKeys(ref.res), quarantineKeys(got.res); !slices.Equal(a, b) {
		t.Fatalf("%s: quarantined %v, the reference %v", name, b, a)
	}
}

func outcomeJSON(t *testing.T, o *Outcome) string {
	t.Helper()
	raw, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// signatures is the sorted, deduplicated outcome-signature set.
func signatures(outcomes []*Outcome) []string {
	var sigs []string
	for _, o := range outcomes {
		sigs = append(sigs, OutcomeSignature(o))
	}
	slices.Sort(sigs)
	return slices.Compact(sigs)
}

func armedIndices(outcomes []*Outcome) []int {
	var out []int
	for _, o := range outcomes {
		if o.FaultArmed {
			out = append(out, o.Index)
		}
	}
	return out
}

// violationSet is the sorted set of distinct violations, indices aside.
func violationSet(r *Result) []string {
	var out []string
	for _, v := range r.Violations {
		out = append(out, v.Assertion+": "+v.Err.Error())
	}
	slices.Sort(out)
	return slices.Compact(out)
}
