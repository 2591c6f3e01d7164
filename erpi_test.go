package erpi_test

import (
	"context"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	erpi "github.com/er-pi/erpi"
	"github.com/er-pi/erpi/internal/constraints"
	"github.com/er-pi/erpi/internal/crdt"
	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/prune"
)

// gsetState is a minimal State over a grow-only set.
type gsetState struct {
	set *crdt.GSet
}

func newGSetState() *gsetState { return &gsetState{set: crdt.NewGSet()} }

func (s *gsetState) Apply(op erpi.Op) (string, error) {
	switch op.Name {
	case "add":
		if !s.set.Add(op.Args[0]) {
			return "", erpi.ErrFailedOp
		}
		return "", nil
	case "read":
		return strings.Join(s.set.Elements(), ","), nil
	default:
		return "", errors.New("unknown op " + op.Name)
	}
}

func (s *gsetState) SyncPayload() ([]byte, error) { return json.Marshal(s.set.Elements()) }

func (s *gsetState) ApplySync(payload []byte) error {
	var elems []string
	if err := json.Unmarshal(payload, &elems); err != nil {
		return err
	}
	for _, e := range elems {
		s.set.Add(e)
	}
	return nil
}

func (s *gsetState) Snapshot() ([]byte, error) { return s.SyncPayload() }

func (s *gsetState) Restore(snap []byte) error {
	s.set = crdt.NewGSet()
	return s.ApplySync(snap)
}

func (s *gsetState) Fingerprint() string { return strings.Join(s.set.Elements(), ",") }

func newTwoReplicaCluster() (*erpi.Cluster, error) {
	return erpi.NewCluster(map[erpi.ReplicaID]erpi.State{
		"A": newGSetState(),
		"B": newGSetState(),
	}), nil
}

func TestSessionStartEndWorkflow(t *testing.T) {
	sess, err := erpi.NewSession(newTwoReplicaCluster)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	rec.Update("A", "add", "x")
	rec.Update("B", "add", "y")
	rec.SyncPair("A", "B")
	rec.SyncPair("B", "A")
	res, err := sess.End(erpi.Convergence{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored == 0 {
		t.Fatal("nothing explored")
	}
	// Without the final syncs in some orders, replicas can diverge: the
	// convergence assertion must catch interleavings where a sync fires
	// before the update it should carry.
	if !res.Exhausted {
		t.Fatal("small space must be exhausted")
	}
}

func TestSessionDetectsDivergence(t *testing.T) {
	// Workload with NO final cross-sync after B's update: in interleavings
	// where the sync to B happens before A's add, states diverge.
	sess, err := erpi.NewSession(newTwoReplicaCluster)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	rec.Update("A", "add", "x")
	rec.Sync("A", "B") // standalone sync: payload captured at exec time
	res, err := sess.End(erpi.Convergence{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("sync-before-update interleaving must diverge")
	}
}

func TestSessionDoubleStartFails(t *testing.T) {
	sess, err := erpi.NewSession(newTwoReplicaCluster)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Start(); err == nil {
		t.Fatal("double start must fail")
	}
}

func TestSessionEndWithoutStartFails(t *testing.T) {
	sess, err := erpi.NewSession(newTwoReplicaCluster)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.End(); err == nil {
		t.Fatal("end without start must fail")
	}
}

func TestNewSessionNilFactory(t *testing.T) {
	if _, err := erpi.NewSession(nil); err == nil {
		t.Fatal("nil factory must be rejected")
	}
}

func TestSessionOptions(t *testing.T) {
	sess, err := erpi.NewSession(newTwoReplicaCluster,
		erpi.WithMode(erpi.ModeERPi),
		erpi.WithMaxInterleavings(5),
		erpi.WithSeed(7),
		erpi.WithStopOnViolation(),
		erpi.WithGroups([][]erpi.EventID{{0, 1}}),
		erpi.WithTestedReplicas("B"),
	)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	rec.Update("A", "add", "x")
	rec.Sync("A", "B")
	rec.Update("B", "add", "y")
	res, err := sess.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored > 5 {
		t.Fatalf("explored %d beyond cap", res.Explored)
	}
}

// TestAPINamesNoInternalType: a caller outside this module cannot import
// an internal/ package, so an exported signature that names one of its
// types can only ever be passed nil or a zero value. The public API names
// internal types through aliases declared in erpi.
func TestAPINamesNoInternalType(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		internal := map[string]string{} // import name -> path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.Contains(p, "/internal/") {
				continue
			}
			n := path.Base(p)
			if imp.Name != nil {
				n = imp.Name.Name
			}
			internal[n] = p
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			ast.Inspect(fn.Type, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && internal[pkg.Name] != "" {
					t.Errorf("%s: %s names %s.%s from %s; declare an alias in erpi",
						fset.Position(fn.Pos()), fn.Name.Name, pkg.Name, sel.Sel.Name, internal[pkg.Name])
				}
				return false
			})
		}
	}
}

func TestSessionConstraintsDir(t *testing.T) {
	dir := t.TempDir()
	// Constraints: declare the two adds independent so their orders merge.
	err := constraints.Write(dir, "c1.json", constraints.File{
		IndependentSets: []prune.IndependenceSpec{{Events: []event.ID{0, 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := erpi.NewSession(newTwoReplicaCluster,
		erpi.WithConstraintsDir(filepath.Clean(dir)))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	rec.Update("A", "add", "x")
	rec.Update("B", "add", "y")
	rec.SyncPair("A", "B")
	if _, err := sess.End(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionFailedOpsRecorded(t *testing.T) {
	sess, err := erpi.NewSession(newTwoReplicaCluster)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	rec.Update("A", "add", "x")
	rec.Update("A", "add", "x") // duplicate add: failed op
	res, err := sess.End(erpi.NoFailedOps{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("duplicate add must trip NoFailedOps in every interleaving")
	}
}

func TestSessionFuzzMode(t *testing.T) {
	sess, err := erpi.NewSession(newTwoReplicaCluster,
		erpi.WithMode(erpi.ModeFuzz),
		erpi.WithSeed(5),
		erpi.WithMaxInterleavings(20),
	)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	rec.Update("A", "add", "x")
	rec.Sync("A", "B")
	rec.Update("B", "add", "y")
	rec.Sync("B", "A")
	res, err := sess.End(erpi.Convergence{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored == 0 {
		t.Fatal("fuzz mode explored nothing")
	}
	if len(res.Violations) == 0 {
		t.Fatal("fuzz mode must hit the divergent orders of this workload")
	}
}

// TestSessionResourceCounters: the §8 resource figures reach a session's
// user through WithTelemetry — RDL operations per name and sync payload
// bytes, counted on the replay path.
func TestSessionResourceCounters(t *testing.T) {
	reg := erpi.NewTelemetry()
	sess, err := erpi.NewSession(newTwoReplicaCluster, erpi.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	rec.Update("A", "add", "x")
	rec.SyncPair("A", "B")
	res, err := sess.End()
	if err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	if res.Explored == 0 || c["runner.op.add"] == 0 || c["runner.sync_bytes"] == 0 {
		t.Fatalf("explored %d, runner.op.add = %d, runner.sync_bytes = %d",
			res.Explored, c["runner.op.add"], c["runner.sync_bytes"])
	}
}

func TestSessionJournalResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	build := func() (*erpi.Session, error) {
		return erpi.NewSession(newTwoReplicaCluster, erpi.WithJournal(dir), erpi.WithMaxInterleavings(5))
	}
	sess, err := build()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	rec.Update("A", "add", "x")
	rec.Update("B", "add", "y")
	rec.SyncPair("A", "B")
	first, err := sess.End()
	if err != nil {
		t.Fatal(err)
	}
	if first.Explored != 5 || first.Resumed != 0 {
		t.Fatalf("first: explored=%d resumed=%d", first.Explored, first.Resumed)
	}
	// A second identical session resumes past the journaled interleavings.
	sess2, err := erpi.NewSession(newTwoReplicaCluster, erpi.WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := sess2.Start()
	if err != nil {
		t.Fatal(err)
	}
	rec2.Update("A", "add", "x")
	rec2.Update("B", "add", "y")
	rec2.SyncPair("A", "B")
	second, err := sess2.End()
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != 5 {
		t.Fatalf("second run resumed %d, want 5", second.Resumed)
	}
}

// TestSessionDeadline: End runs under WithDeadline's timeout and returns
// the partial Result with Interrupted set once it passes.
func TestSessionDeadline(t *testing.T) {
	sess, err := erpi.NewSession(newTwoReplicaCluster, erpi.WithDeadline(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	rec.Update("A", "add", "x")
	rec.Update("B", "add", "y")
	rec.SyncPair("A", "B")
	rec.SyncPair("B", "A")
	res, err := sess.End()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || !errors.Is(res.InterruptErr, context.DeadlineExceeded) {
		t.Fatalf("Interrupted = %v, InterruptErr = %v; want the deadline's interruption", res.Interrupted, res.InterruptErr)
	}
	if res.Explored >= 24 {
		t.Fatalf("explored all %d interleavings past the deadline", res.Explored)
	}
}

// TestSessionChaosReplay drives the public fault-injection surface: a
// scheduled replica crash makes some interleavings fail, which must land
// in Result.Quarantined while exploration continues to the end.
func TestSessionChaosReplay(t *testing.T) {
	sess, err := erpi.NewSession(newTwoReplicaCluster,
		erpi.WithFaults(erpi.FaultSchedule{
			Seed: 7,
			Faults: []erpi.Fault{{
				Kind:     erpi.FaultCrashReplica,
				Replica:  "B",
				At:       1,
				Duration: 10,
			}},
		}),
		erpi.WithRetries(-1),
		erpi.WithDeadline(30*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	rec.Update("A", "add", "x")
	rec.Update("B", "add", "y")
	rec.SyncPair("A", "B")
	rec.SyncPair("B", "A")
	res, err := sess.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("run must not be interrupted")
	}
	if res.Explored == 0 {
		t.Fatal("chaos must not abort exploration")
	}
	if len(res.Quarantined) == 0 {
		t.Fatal("crashing B for the whole run must quarantine interleavings")
	}
	for _, q := range res.Quarantined {
		if !errors.Is(q.Err, erpi.ErrReplicaDown) {
			t.Fatalf("quarantine cause = %v; want ErrReplicaDown", q.Err)
		}
	}
}
