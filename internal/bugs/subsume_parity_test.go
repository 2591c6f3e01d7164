package bugs_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/er-pi/erpi/internal/bugs"
	"github.com/er-pi/erpi/internal/interleave"
	"github.com/er-pi/erpi/internal/miscon"
	"github.com/er-pi/erpi/internal/runner"
)

// parityCap bounds each exploration: large enough that the lexicographic
// frontier revisits states (so subsumption actually fires somewhere),
// small enough to keep the 5-subject × 2-worker-count matrix fast.
const parityCap = 200

// paritySubjects is one workload per evaluation subject. Four ride on
// Table-1 bug benchmarks; the CRDT library has no Table-1 entry, so it
// rides on its misconception scenario.
func paritySubjects(t *testing.T) map[string]runner.Scenario {
	t.Helper()
	out := make(map[string]runner.Scenario)
	for _, name := range []string{"Roshi-1", "OrbitDB-2", "ReplicaDB-1", "Yorkie-1"} {
		b, ok := bugs.ByName(name)
		if !ok {
			t.Fatalf("unknown bug %q", name)
		}
		s, err := b.Build()
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		out[name] = s
	}
	for _, sc := range miscon.All() {
		if sc.Name() == "CRDTs#4" {
			s, err := sc.Build()
			if err != nil {
				t.Fatalf("build CRDTs#4: %v", err)
			}
			out["CRDTs#4"] = s
		}
	}
	if len(out) != 5 {
		t.Fatalf("assembled %d subjects, want 5", len(out))
	}
	return out
}

// exploreSigs runs one configuration and returns its deduplicated,
// sorted outcome-signature set plus the run counters.
func exploreSigs(t *testing.T, s runner.Scenario, workers int, subsume bool) ([]string, *runner.Result) {
	t.Helper()
	set := make(map[string]struct{})
	cfg := runner.Config{
		Mode:             runner.ModeDFS,
		MaxInterleavings: parityCap,
		Workers:          workers,
		OnOutcome: func(o *runner.Outcome) {
			set[runner.OutcomeSignature(o)] = struct{}{}
		},
	}
	if subsume {
		cfg.SubsumptionTable = 4 << 20
	}
	res, err := runner.Run(s, cfg)
	if err != nil {
		t.Fatalf("run (workers=%d subsume=%v): %v", workers, subsume, err)
	}
	sigs := make([]string, 0, len(set))
	for sig := range set {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	return sigs, res
}

// TestSubsumptionSignatureParityAllSubjects is the PR's acceptance pin:
// for every evaluation subject, turning state-subsumption pruning on must
// leave the deduplicated outcome-signature set — the engine's observable
// behavior inventory — byte-identical to the unpruned run, at one worker
// and at eight. It also pins accounting parity (Explored is unchanged:
// subsumed interleavings still consume indices) and that pruning actually
// fires on at least one subject, so the parity claim is not vacuous.
func TestSubsumptionSignatureParityAllSubjects(t *testing.T) {
	subjects := paritySubjects(t)
	names := make([]string, 0, len(subjects))
	for name := range subjects {
		names = append(names, name)
	}
	sort.Strings(names)

	totalSubsumed := 0
	for _, name := range names {
		s := subjects[name]
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				baseSigs, baseRes := exploreSigs(t, s, workers, false)
				subSigs, subRes := exploreSigs(t, s, workers, true)
				if baseRes.Subsumed != 0 {
					t.Fatalf("baseline reported %d subsumed with the table disabled", baseRes.Subsumed)
				}
				if subRes.Explored != baseRes.Explored {
					t.Fatalf("explored diverged: %d with subsumption, %d without (skipped interleavings must still consume the cap)",
						subRes.Explored, baseRes.Explored)
				}
				if !reflect.DeepEqual(subSigs, baseSigs) {
					t.Fatalf("signature set diverged with subsumption on:\n with    %v\n without %v", subSigs, baseSigs)
				}
				totalSubsumed += subRes.Subsumed
			})
		}
	}
	if totalSubsumed == 0 {
		t.Fatal("no interleaving was subsumed on any subject: the parity assertions never exercised pruning")
	}
}

// lexOrderCap bounds how many interleavings per scenario and mode the
// order check pulls (the DFS spaces are n!).
const lexOrderCap = 5000

// TestExplorersYieldLexicographicOrder pins what the subsumption table's
// index key rests on (DESIGN.md §4.12): for every Table-1 scenario, the
// ModeERPi and ModeDFS explorers yield interleavings in strictly
// increasing event-ID lexicographic order, so a smaller exploration index
// is a lexicographically smaller interleaving. Strict order is also what
// makes a prefix's subtree one interval of indices, which the executor's
// dead-prefix skip relies on to keep a single prefix: once a leaf no
// longer extends it, no later index does. The prefix cache is the third
// dependent: it keeps only a stack of snapshots along the last path,
// because an executor in strict order never comes back to a prefix it
// has left.
func TestExplorersYieldLexicographicOrder(t *testing.T) {
	for _, b := range bugs.All() {
		s, err := b.Build()
		if err != nil {
			t.Fatalf("build %s: %v", b.Name, err)
		}
		for _, mode := range []runner.Mode{runner.ModeERPi, runner.ModeDFS} {
			explorer, err := runner.NewExplorer(s, runner.Config{Mode: mode})
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, mode, err)
			}
			var prev interleave.Interleaving
			for n := 1; n <= lexOrderCap; n++ {
				il, ok := explorer.Next()
				if !ok {
					break
				}
				if n > 1 && slices.Compare(prev, il) >= 0 {
					t.Fatalf("%s/%s: interleaving #%d %v does not follow #%d %v in lexicographic order",
						b.Name, mode, n, il, n-1, prev)
				}
				prev = slices.Clone(il)
			}
		}
	}
}
