package prune

import (
	"math/big"
	"slices"
	"testing"
	"testing/quick"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
)

func mustLog(t *testing.T, evs []event.Event) *event.Log {
	t.Helper()
	log, err := event.NewLog(evs)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// townReportLog reproduces the motivating example of paper §2.3: seven
// events across residents A and B plus the municipality M.
//
//	0 ev_I       update@A    add(otb)
//	1 sync(I)    exec_sync   A→B
//	2 ev_II      update@B    add(ph)
//	3 sync(II)   exec_sync   B→A
//	4 ev_III     update@B    remove(otb)
//	5 sync(III)  exec_sync   B→A
//	6 ev_IV      sync_req    A→M (transmit problem set)
func townReportLog(t *testing.T) *event.Log {
	t.Helper()
	return mustLog(t, []event.Event{
		{Kind: event.Update, Replica: "A", Op: "set.add", Args: []string{"otb"}},
		{Kind: event.SyncExec, Replica: "B", From: "A", To: "B", Carries: []event.ID{0}},
		{Kind: event.Update, Replica: "B", Op: "set.add", Args: []string{"ph"}},
		{Kind: event.SyncExec, Replica: "A", From: "B", To: "A", Carries: []event.ID{2}},
		{Kind: event.Update, Replica: "B", Op: "set.remove", Args: []string{"otb"}},
		{Kind: event.SyncExec, Replica: "A", From: "B", To: "A", Carries: []event.ID{4}},
		{Kind: event.SyncSend, Replica: "A", From: "A", To: "M", Op: "transmit"},
	})
}

func townReportConfig() Config {
	return Config{
		Grouping:       GroupSpec{Extra: [][]event.ID{{0, 1}, {2, 3}, {4, 5}}},
		TestedReplicas: []event.ReplicaID{"M"},
	}
}

// TestMotivatingExampleCounts checks the paper's headline numbers for §2.3
// and §3.1: 7 events → 5040 raw interleavings, grouping → 4! = 24,
// replica-specific → 19, a 265× reduction.
func TestMotivatingExampleCounts(t *testing.T) {
	log := townReportLog(t)
	if got := interleave.Factorial(log.Len()); got.Cmp(big.NewInt(5040)) != 0 {
		t.Fatalf("raw space = %s, want 5040", got)
	}
	space, err := GroupedSpace(log, townReportConfig().Grouping)
	if err != nil {
		t.Fatal(err)
	}
	if space.NumUnits() != 4 {
		t.Fatalf("grouping produced %d units, want 4", space.NumUnits())
	}
	if space.Size().Cmp(big.NewInt(24)) != 0 {
		t.Fatalf("grouped space = %s, want 24", space.Size())
	}
	res, err := CountPruned(log, townReportConfig(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Surviving.Cmp(big.NewInt(19)) != 0 {
		t.Fatalf("pruned interleavings = %s, want 19 (paper §3.1)", res.Surviving)
	}
	// 5040/19 = 265 (floor), the paper's reduction claim.
	if red := 5040 / 19; red != 265 {
		t.Fatalf("reduction = %d, want 265", red)
	}
}

// TestMotivatingExampleExplorer verifies the lazy explorer yields exactly
// the 19 surviving interleavings, all distinct, each a permutation of all
// seven events.
func TestMotivatingExampleExplorer(t *testing.T) {
	log := townReportLog(t)
	ex, err := NewExplorer(log, townReportConfig())
	if err != nil {
		t.Fatal(err)
	}
	ils := interleave.Collect(ex, 0)
	if len(ils) != 19 {
		t.Fatalf("explorer yielded %d interleavings, want 19", len(ils))
	}
	seen := map[string]bool{}
	for _, il := range ils {
		if len(il) != 7 {
			t.Fatalf("interleaving %v has %d events, want 7", il, len(il))
		}
		if seen[il.Key()] {
			t.Fatalf("duplicate interleaving %v", il)
		}
		seen[il.Key()] = true
	}
}

// TestEventGroupingFigure3 reproduces the paper's Figure 3: eight events
// with two sync_req/exec_sync pairs group into six units, reducing the
// space 8!/6! = 56 times.
func TestEventGroupingFigure3(t *testing.T) {
	log := mustLog(t, []event.Event{
		{Kind: event.Update, Replica: "A", Op: "u1"},             // ev1
		{Kind: event.Update, Replica: "A", Op: "u2"},             // ev2
		{Kind: event.SyncSend, Replica: "A", From: "A", To: "B"}, // ev3
		{Kind: event.SyncExec, Replica: "B", From: "A", To: "B"}, // ev4
		{Kind: event.Update, Replica: "B", Op: "u5"},             // ev5
		{Kind: event.Update, Replica: "B", Op: "u6"},             // ev6
		{Kind: event.SyncSend, Replica: "B", From: "B", To: "A"}, // ev7
		{Kind: event.SyncExec, Replica: "A", From: "B", To: "A"}, // ev8
	})
	units, err := Group(log, GroupSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 6 {
		t.Fatalf("grouping produced %d units, want 6", len(units))
	}
	raw := interleave.Factorial(8)
	grouped := interleave.Factorial(6)
	factor := new(big.Int).Div(raw, grouped)
	if factor.Cmp(big.NewInt(56)) != 0 {
		t.Fatalf("reduction factor = %s, want 56", factor)
	}
}

// TestReplicaSpecificFigure4 reproduces Figure 4: with four events at
// replica A unable to impact tested replica B once they trail A's last sync
// to B, their 4! orderings merge, pruning 4!−1 = 23 interleavings from the
// affected classes.
func TestReplicaSpecificFigure4(t *testing.T) {
	// Unit alphabet: one sync pair A→B (impacts B), four A-local updates.
	log := mustLog(t, []event.Event{
		{Kind: event.SyncSend, Replica: "A", From: "A", To: "B"}, // 0
		{Kind: event.SyncExec, Replica: "B", From: "A", To: "B"}, // 1
		{Kind: event.Update, Replica: "A", Op: "p"},              // 2
		{Kind: event.Update, Replica: "A", Op: "q"},              // 3
		{Kind: event.Update, Replica: "A", Op: "r"},              // 4
		{Kind: event.Update, Replica: "A", Op: "s"},              // 5
	})
	space, err := GroupedSpace(log, GroupSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if space.NumUnits() != 5 {
		t.Fatalf("units = %d, want 5", space.NumUnits())
	}
	filter := NewReplicaSpecific(space, "B")
	res := interleave.Count(space, []interleave.Filter{filter}, 0, 1)
	// 5! = 120 total. Classes where all four A-updates trail the sync pair:
	// 4! = 24 merge into 1, pruning 23.
	want := big.NewInt(120 - 23)
	if res.Surviving.Cmp(want) != 0 {
		t.Fatalf("surviving = %s, want %s (pruned 23, Figure 4)", res.Surviving, want)
	}
}

// TestIndependenceFigure5 reproduces Figure 5: three mutually independent
// list updates merge their 3! orderings into one, pruning 5.
func TestIndependenceFigure5(t *testing.T) {
	log := mustLog(t, []event.Event{
		{Kind: event.Update, Replica: "A", Op: "list.set", Args: []string{"idxA"}},
		{Kind: event.Update, Replica: "B", Op: "list.set", Args: []string{"idxB"}},
		{Kind: event.Update, Replica: "C", Op: "list.set", Args: []string{"idxC"}},
	})
	space, err := GroupedSpace(log, GroupSpec{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewIndependence(space, []event.ID{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := interleave.Count(space, []interleave.Filter{f}, 0, 1)
	if res.Surviving.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("surviving = %s, want 1 (3! merged, pruning 5, Figure 5)", res.Surviving)
	}
}

// TestIndependenceInterference checks that an interfering event between
// independent events blocks the merge.
func TestIndependenceInterference(t *testing.T) {
	log := mustLog(t, []event.Event{
		{Kind: event.Update, Replica: "A", Op: "ind1"},  // 0 independent
		{Kind: event.Update, Replica: "B", Op: "ind2"},  // 1 independent
		{Kind: event.Update, Replica: "C", Op: "other"}, // 2 interferes
	})
	space, err := GroupedSpace(log, GroupSpec{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewIndependence(space, []event.ID{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := interleave.Count(space, []interleave.Filter{f}, 0, 1)
	// 3! = 6 total. Classes merge only when 0 and 1 are adjacent (no
	// interfering unit between): [0 1 2]/[1 0 2], [2 0 1]/[2 1 0] → merge 2
	// pairs, pruning 2. With the interferer in the middle ([0 2 1], [1 2 0])
	// no merge.
	if res.Surviving.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("surviving = %s, want 4", res.Surviving)
	}
	// Declaring event 2 non-interfering re-enables the full merge: 3! → 1
	// class for orderings of {0,1} with 2 anywhere between... each distinct
	// placement of 2 yields one canonical representative: 3 survive.
	f2, err := NewIndependence(space, []event.ID{0, 1}, []event.ID{2})
	if err != nil {
		t.Fatal(err)
	}
	res2 := interleave.Count(space, []interleave.Filter{f2}, 0, 1)
	if res2.Surviving.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("surviving with inert interferer = %s, want 3", res2.Surviving)
	}
}

// TestFailedOpsFigure6 reproduces Figure 6: after predecessors fill the
// set, the three doomed ops remove(ε), add(α), remove(σ) merge their 3!
// orderings, pruning 5 per class.
func TestFailedOpsFigure6(t *testing.T) {
	log := mustLog(t, []event.Event{
		{Kind: event.Update, Replica: "A", Op: "set.add", Args: []string{"alpha"}},    // 0 pred
		{Kind: event.Update, Replica: "A", Op: "set.add", Args: []string{"beta"}},     // 1 pred
		{Kind: event.Update, Replica: "B", Op: "set.remove", Args: []string{"eps"}},   // 2 fails
		{Kind: event.Update, Replica: "B", Op: "set.add", Args: []string{"alpha"}},    // 3 fails
		{Kind: event.Update, Replica: "B", Op: "set.remove", Args: []string{"sigma"}}, // 4 fails
	})
	space, err := GroupedSpace(log, GroupSpec{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFailedOps(space, FailedOpsSpec{
		Predecessors: []event.ID{0, 1},
		Successors:   []event.ID{2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := interleave.Count(space, []interleave.Filter{f}, 0, 1)
	// 5! = 120. Orderings with both preds before all three successors:
	// choose positions... preds occupy first two slots in some order (2!)
	// and succs the rest (3!): 12 such perms; they merge by successor order
	// (3! → 1): 12 → 2·1 = 2, pruning 10 (two classes × 5, Figure 6's 5 per
	// class).
	want := big.NewInt(120 - 10)
	if res.Surviving.Cmp(want) != 0 {
		t.Fatalf("surviving = %s, want %s", res.Surviving, want)
	}
}

func TestGroupMergesUserAndSyncGroups(t *testing.T) {
	log := mustLog(t, []event.Event{
		{Kind: event.Update, Replica: "A", Op: "u"},              // 0
		{Kind: event.SyncSend, Replica: "A", From: "A", To: "B"}, // 1
		{Kind: event.SyncExec, Replica: "B", From: "A", To: "B"}, // 2
		{Kind: event.Update, Replica: "B", Op: "v"},              // 3
	})
	// User groups the update with its sync send; the automatic pair (1,2)
	// must merge transitively into one unit {0,1,2}.
	units, err := Group(log, GroupSpec{Extra: [][]event.ID{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("units = %d, want 2", len(units))
	}
	if len(units[0].Events) != 3 || units[0].Events[0] != 0 || units[0].Events[2] != 2 {
		t.Fatalf("merged unit = %v, want [0 1 2]", units[0].Events)
	}
}

func TestGroupValidation(t *testing.T) {
	log := mustLog(t, []event.Event{{Kind: event.Update, Replica: "A"}})
	if _, err := Group(log, GroupSpec{Extra: [][]event.ID{{}}}); err == nil {
		t.Error("empty group must be rejected")
	}
	if _, err := Group(log, GroupSpec{Extra: [][]event.ID{{5}}}); err == nil {
		t.Error("out-of-range group must be rejected")
	}
}

func TestGroupDisableSyncPairs(t *testing.T) {
	log := mustLog(t, []event.Event{
		{Kind: event.SyncSend, Replica: "A", From: "A", To: "B"},
		{Kind: event.SyncExec, Replica: "B", From: "A", To: "B"},
	})
	units, err := Group(log, GroupSpec{DisableSyncPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("units = %d, want 2 with sync pairing disabled", len(units))
	}
}

// TestPruningSoundness is the core safety property: every interleaving the
// pruned explorer drops must be equivalent (under the declared constraints)
// to some surviving interleaving. We verify the structural half on the
// motivating example: every dropped interleaving maps, by the canonical
// reordering the rules define, onto a surviving one.
func TestPruningSoundness(t *testing.T) {
	log := townReportLog(t)
	cfg := townReportConfig()
	space, filters, err := Build(log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Enumerate all 24 grouped permutations; partition into surviving and
	// dropped.
	surviving := map[string]bool{}
	var dropped []interleave.Interleaving
	dfs := interleave.NewDFS(space)
	for {
		il, ok := dfs.Next()
		if !ok {
			break
		}
		perm := permOf(space, il)
		if canonical(perm, filters) {
			surviving[il.Key()] = true
		} else {
			dropped = append(dropped, il)
		}
	}
	if len(surviving) != 19 {
		t.Fatalf("surviving = %d, want 19", len(surviving))
	}
	if len(dropped) != 5 {
		t.Fatalf("dropped = %d, want 5", len(dropped))
	}
	// Every dropped interleaving has ev_IV (event 6) first; its canonical
	// representative (free suffix ascending) must be in the surviving set.
	for _, il := range dropped {
		if il[0] != 6 {
			t.Fatalf("dropped interleaving %v does not start with ev_IV", il)
		}
	}
	canon := interleave.Interleaving{6, 0, 1, 2, 3, 4, 5}
	if !surviving[canon.Key()] {
		t.Fatalf("canonical representative %v missing from survivors", canon)
	}
}

func permOf(space *interleave.Space, il interleave.Interleaving) []int {
	var perm []int
	seen := map[int]bool{}
	for _, id := range il {
		u := space.UnitOf(id)
		if !seen[u] {
			seen[u] = true
			perm = append(perm, u)
		}
	}
	return perm
}

func canonical(perm []int, filters []interleave.Filter) bool {
	for _, f := range filters {
		if ok, _ := f.Canonical(perm); !ok {
			return false
		}
	}
	return true
}

// TestFiltersAcceptExactlyOnePerClass is a property test: for random small
// spaces with a random independent set, the Independence filter accepts at
// least one permutation out of every full-space enumeration class.
func TestFiltersAcceptExactlyOnePerClass(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%3) + 3 // 3..5 units
		evs := make([]event.Event, n)
		for i := range evs {
			evs[i] = event.Event{Kind: event.Update, Replica: event.ReplicaID(string(rune('A' + i)))}
		}
		log, err := event.NewLog(evs)
		if err != nil {
			return false
		}
		space := interleave.NewSpace(log)
		ind := []event.ID{0, 1}
		filter, err := NewIndependence(space, ind, nil)
		if err != nil {
			return false
		}
		// Each equivalence class must keep >= 1 representative: count
		// survivors and verify every survivor is genuinely canonical and
		// total classes <= survivors <= n!.
		res := interleave.Count(space, []interleave.Filter{filter}, 0, int64(seed))
		return res.Surviving.Sign() > 0 && res.Surviving.Cmp(space.Size()) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalFiltersMatchBruteForce pins the incremental
// CanonicalFrom path — what the pruned DFS explorer drives via its
// dirty-index tracking — against the brute-force path of
// interleave/count.go: stateless Canonical applied to every permutation
// of the space. The enumerations must be identical in content and order
// for each filter alone and for all of them chained, and the explorer's
// yield count must equal Count's exact enumeration.
func TestIncrementalFiltersMatchBruteForce(t *testing.T) {
	// Eight events exercising all three rules at once: two predecessor
	// adds at A, a sync pair A→B (grouping into one unit), two doomed ops
	// at B, and two mutually independent updates at C.
	log := mustLog(t, []event.Event{
		{Kind: event.Update, Replica: "A", Op: "set.add", Args: []string{"alpha"}},  // 0 pred
		{Kind: event.Update, Replica: "A", Op: "set.add", Args: []string{"beta"}},   // 1 pred
		{Kind: event.SyncSend, Replica: "A", From: "A", To: "B"},                    // 2 ┐ one unit,
		{Kind: event.SyncExec, Replica: "B", From: "A", To: "B"},                    // 3 ┘ impacts B
		{Kind: event.Update, Replica: "B", Op: "set.remove", Args: []string{"eps"}}, // 4 doomed
		{Kind: event.Update, Replica: "B", Op: "set.add", Args: []string{"alpha"}},  // 5 doomed
		{Kind: event.Update, Replica: "C", Op: "list.set", Args: []string{"idx1"}},  // 6 independent
		{Kind: event.Update, Replica: "C", Op: "list.set", Args: []string{"idx2"}},  // 7 independent
	})
	space, err := GroupedSpace(log, GroupSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if space.NumUnits() != 7 {
		t.Fatalf("units = %d, want 7", space.NumUnits())
	}
	// Filter constructors; each case builds fresh instances for the
	// incremental explorer and for the stateless oracle, so incremental
	// state can never leak between the two paths.
	mk := map[string]func() interleave.Filter{
		"replica-specific": func() interleave.Filter {
			return NewReplicaSpecific(space, "B")
		},
		"independence": func() interleave.Filter {
			f, err := NewIndependence(space, []event.ID{6, 7}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"failed-ops": func() interleave.Filter {
			f, err := NewFailedOps(space, FailedOpsSpec{
				Predecessors: []event.ID{0, 1},
				Successors:   []event.ID{4, 5},
			})
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
	cases := map[string][]string{
		"replica-specific": {"replica-specific"},
		"independence":     {"independence"},
		"failed-ops":       {"failed-ops"},
		"chained":          {"replica-specific", "independence", "failed-ops"},
	}
	for name, chain := range cases {
		t.Run(name, func(t *testing.T) {
			build := func() []interleave.Filter {
				out := make([]interleave.Filter, len(chain))
				for i, c := range chain {
					out[i] = mk[c]()
					if _, ok := out[i].(interleave.IncrementalFilter); !ok {
						t.Fatalf("%s does not implement IncrementalFilter", c)
					}
				}
				return out
			}
			// Brute force: full DFS enumeration, stateless Canonical.
			oracle := build()
			var want []string
			dfs := interleave.NewDFS(space)
			for {
				il, ok := dfs.Next()
				if !ok {
					break
				}
				if canonical(dfs.Perm(), oracle) {
					want = append(want, il.Key())
				}
			}
			// Incremental: the pruned explorer's CanonicalFrom path.
			var got []string
			for _, il := range interleave.Collect(interleave.NewPruned(space, build()...), 0) {
				got = append(got, il.Key())
			}
			if len(got) != len(want) {
				t.Fatalf("incremental explorer yielded %d interleavings, brute force %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("enumeration diverges at %d: incremental %s, brute force %s", i, got[i], want[i])
				}
			}
			// Vacuousness guards: the filters must actually prune, and the
			// count must agree with count.go's exact enumeration.
			total := space.Size()
			if int64(len(want)) >= total.Int64() || len(want) == 0 {
				t.Fatalf("pin is vacuous: %d of %s survive", len(want), total)
			}
			res := interleave.Count(space, build(), 0, 1)
			if res.Surviving.Cmp(big.NewInt(int64(len(want)))) != 0 {
				t.Fatalf("Count = %s, explorer = %d", res.Surviving, len(want))
			}
		})
	}
}

func TestConfigMerge(t *testing.T) {
	a := Config{TestedReplicas: []event.ReplicaID{"A"}}
	b := Config{
		Grouping:        GroupSpec{Extra: [][]event.ID{{0, 1}}},
		IndependentSets: []IndependenceSpec{{Events: []event.ID{2, 3}}},
		FailedOps:       []FailedOpsSpec{{Predecessors: []event.ID{0}, Successors: []event.ID{1}}},
	}
	a.Merge(b)
	if len(a.Grouping.Extra) != 1 || len(a.IndependentSets) != 1 || len(a.FailedOps) != 1 || len(a.TestedReplicas) != 1 {
		t.Fatalf("merge lost fields: %+v", a)
	}
}

func TestFailedOpsValidation(t *testing.T) {
	log := mustLog(t, []event.Event{
		{Kind: event.Update, Replica: "A"},
		{Kind: event.Update, Replica: "B"},
	})
	space := interleave.NewSpace(log)
	if _, err := NewFailedOps(space, FailedOpsSpec{Predecessors: []event.ID{0}, Successors: []event.ID{0}}); err == nil {
		t.Error("event in both roles must be rejected")
	}
	if _, err := NewFailedOps(space, FailedOpsSpec{Successors: []event.ID{9}}); err == nil {
		t.Error("unknown successor must be rejected")
	}
}

func TestAblateStages(t *testing.T) {
	log := townReportLog(t)
	cfg := townReportConfig()
	results, err := Ablate(log, cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("ablation stages = %d, want 2 (grouping + replica-specific)", len(results))
	}
	if results[0].Stage != StageGrouping {
		t.Fatalf("first stage = %s", results[0].Stage)
	}
	// Grouping alone: 5040/24 = 210×.
	if results[0].Reduction < 209 || results[0].Reduction > 211 {
		t.Fatalf("grouping reduction = %f, want 210", results[0].Reduction)
	}
	// Replica-specific on grouped space: 5040/19 ≈ 265×.
	if results[1].Reduction < 264 || results[1].Reduction > 266 {
		t.Fatalf("replica-specific reduction = %f, want ≈265", results[1].Reduction)
	}
}

// TestCompletionsMatchReplicaSpecific checks Completions against the
// replica-specific filters themselves, over every pair of interleavings
// of a small log with a sync pair (so prefixes end inside a unit) and
// every split depth, the second one kept: Keeps says whether the filters
// keep the first one's prefix followed by the second one's suffix, given
// the first prefix's class, and Covers(w, x) means a prefix of class w is
// kept with every suffix one of class x is kept with.
func TestCompletionsMatchReplicaSpecific(t *testing.T) {
	log := mustLog(t, []event.Event{
		{Kind: event.Update, Replica: "A", Op: "add"},
		{Kind: event.SyncSend, Replica: "A", From: "A", To: "B"},
		{Kind: event.Update, Replica: "B", Op: "add"},
		{Kind: event.SyncExec, Replica: "B", From: "A", To: "B"},
		{Kind: event.Update, Replica: "C", Op: "add"},
		{Kind: event.Observe, Replica: "B", Op: "read"},
	})
	for _, tested := range [][]event.ReplicaID{{"A"}, {"B"}, {"C"}, {"A", "C"}} {
		cfg := Config{TestedReplicas: tested}
		space, filters, err := Build(log, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCompletions(log, cfg)
		if err != nil {
			t.Fatal(err)
		}
		all := interleave.Collect(interleave.NewDFS(space), 0)
		valid := map[string]bool{}
		for _, il := range all {
			valid[il.Key()] = true
		}
		kept := func(il interleave.Interleaving) bool { return canonical(permOf(space, il), filters) }
		for d := 1; d < log.Len(); d++ {
			for _, a := range all {
				for _, b := range all {
					if !kept(b) || multisetKey(a[:d]) != multisetKey(b[:d]) {
						continue
					}
					joined := append(append(interleave.Interleaving{}, a[:d]...), b[d:]...)
					if !valid[joined.Key()] {
						continue
					}
					if got, want := c.Keeps(c.Key(a[:d]), b[:d], b[d:]), kept(joined); got != want {
						t.Fatalf("tested %v: Keeps(class of %v, then %v) = %v, the filters %v", tested, a[:d], b[d:], got, want)
					}
					if c.Covers(c.Key(a[:d]), c.Key(b[:d])) && !kept(joined) {
						t.Fatalf("tested %v: %v covers %v, but the filters drop it with %v", tested, a[:d], b[:d], b[d:])
					}
				}
			}
		}
	}
}

// multisetKey is the sorted event IDs of a prefix.
func multisetKey(il interleave.Interleaving) string {
	s := append(interleave.Interleaving{}, il...)
	slices.Sort(s)
	return s.Key()
}
