package prune

import (
	"fmt"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
)

// UnitImpacts reports whether unit ui can impact the state observed at
// replica r: it contains an event executing at r, or a synchronization
// (send or exec) delivering into r. This is the impact notion of
// replica-specific pruning — a transmission *toward* r determines what r
// receives even though it executes at the sender.
func UnitImpacts(space *interleave.Space, ui int, r event.ReplicaID) bool {
	for _, id := range space.Unit(ui).Events {
		ev := space.Log().Event(id)
		if ev.Replica == r {
			return true
		}
		if ev.IsSync() && ev.To == r {
			return true
		}
	}
	return false
}

// ReplicaSpecific implements Algorithm 2. For a tested replica r, consider
// an interleaving whose trailing block — everything after the last unit
// that impacts r — consists of ALL the units that cannot impact r. Those
// trailing units can no longer influence anything observable at r, so all
// orderings of the block are equivalent; the filter accepts only the
// representative with the block in ascending unit order.
//
// This is exactly the situation of the paper's Figure 4 (replica A's four
// events after its last sync to B merge, pruning 4!−1 = 23) and of the
// motivating example ("ev_IV first" merges 3! orders, 24 → 19).
type ReplicaSpecific struct {
	impacting []bool // per unit index
	freeCount int
	replica   event.ReplicaID

	// Incremental state for CanonicalFrom: prefix scans over the most
	// recently evaluated permutation. Entry i depends only on perm[:i+1],
	// so when the explorer reports perm[:from] unchanged, entries below
	// from are still valid.
	lastImp  []int // last position whose unit impacts the replica, -1 if none
	lastDesc []int // last descent position j (perm[j-1] > perm[j]), 0 if none
}

var _ interleave.Filter = (*ReplicaSpecific)(nil)
var _ interleave.IncrementalFilter = (*ReplicaSpecific)(nil)

// NewReplicaSpecific builds the filter for a tested replica.
func NewReplicaSpecific(space *interleave.Space, r event.ReplicaID) *ReplicaSpecific {
	n := space.NumUnits()
	f := &ReplicaSpecific{impacting: make([]bool, n), replica: r}
	for ui := 0; ui < n; ui++ {
		f.impacting[ui] = UnitImpacts(space, ui, r)
		if !f.impacting[ui] {
			f.freeCount++
		}
	}
	return f
}

// Name implements interleave.Filter.
func (f *ReplicaSpecific) Name() string {
	return fmt.Sprintf("replica-specific(%s)", f.replica)
}

// Canonical implements interleave.Filter.
func (f *ReplicaSpecific) Canonical(perm []int) (bool, int) {
	if f.freeCount == 0 {
		return true, 0
	}
	// Locate the last impacting unit.
	last := -1
	for i, u := range perm {
		if f.impacting[u] {
			last = i
		}
	}
	if len(perm)-(last+1) != f.freeCount {
		// The trailing block does not contain all free units: not a merged
		// class, the interleaving stands for itself.
		return true, 0
	}
	// Canonical representative: free suffix ascending by unit index.
	for i := last + 2; i < len(perm); i++ {
		if perm[i-1] > perm[i] {
			return false, i + 1
		}
	}
	return true, 0
}

// CanonicalFrom implements interleave.IncrementalFilter: identical to
// Canonical, but reuses the prefix scans of the previous call for
// positions below from.
func (f *ReplicaSpecific) CanonicalFrom(perm []int, from int) (bool, int) {
	if f.freeCount == 0 || len(perm) == 0 {
		return true, 0
	}
	n := len(perm)
	if f.lastImp == nil {
		f.lastImp = make([]int, n)
		f.lastDesc = make([]int, n)
		from = 0
	}
	if from > n {
		from = n
	}
	for i := from; i < n; i++ {
		li, ld := -1, 0
		if i > 0 {
			li, ld = f.lastImp[i-1], f.lastDesc[i-1]
		}
		if f.impacting[perm[i]] {
			li = i
		}
		if i > 0 && perm[i-1] > perm[i] {
			ld = i
		}
		f.lastImp[i], f.lastDesc[i] = li, ld
	}
	last := f.lastImp[n-1]
	if n-(last+1) != f.freeCount {
		return true, 0
	}
	// The free suffix is ascending iff no descent occurs past last+1.
	if f.lastDesc[n-1] <= last+1 {
		return true, 0
	}
	// Rejected: report the shortest non-canonical prefix, exactly as
	// Canonical does. The scan is bounded by the free-suffix length.
	for i := last + 2; i < n; i++ {
		if perm[i-1] > perm[i] {
			return false, i + 1
		}
	}
	return true, 0
}

// Independence implements Algorithm 3 for one developer-declared set of
// mutually independent events. When no interfering unit lies between the
// first and the last of the independent units, permuting the independent
// units among their positions cannot change any outcome, so the filter
// accepts only the ascending-order representative.
type Independence struct {
	name string
	// member[u] is true for units holding an independent event.
	member []bool
	// inert[u] is true for units known not to interact with the independent
	// set (developer-declared); inert units between independent units do
	// not break the merge.
	inert []bool

	// Incremental state for CanonicalFrom (prefix scans, entry i depends
	// only on perm[:i+1]).
	firstMem []int  // first member position, -1 if none yet
	lastMem  []int  // last member position, -1 if none yet
	lastBad  []int  // last interfering (non-member, non-inert) position, -1 if none
	memVal   []int  // unit index of the last member seen, -1 if none
	memViol  []bool // a member pair out of ascending unit order exists
}

var _ interleave.Filter = (*Independence)(nil)
var _ interleave.IncrementalFilter = (*Independence)(nil)

// NewIndependence builds the filter. independent and nonInterfering are
// event IDs; a unit is a member if it contains any independent event, and
// inert if all of its events are declared non-interfering.
func NewIndependence(space *interleave.Space, independent, nonInterfering []event.ID) (*Independence, error) {
	n := space.NumUnits()
	f := &Independence{
		name:   fmt.Sprintf("independence(%d events)", len(independent)),
		member: make([]bool, n),
		inert:  make([]bool, n),
	}
	for _, id := range independent {
		ui := space.UnitOf(id)
		if ui < 0 {
			return nil, fmt.Errorf("prune: independent event %d not in space", id)
		}
		f.member[ui] = true
	}
	inertIDs := make(map[event.ID]bool, len(nonInterfering))
	for _, id := range nonInterfering {
		inertIDs[id] = true
	}
	for ui := range n {
		if f.member[ui] {
			continue
		}
		events := space.Unit(ui).Events
		all := true
		for _, id := range events {
			if !inertIDs[id] {
				all = false
				break
			}
		}
		f.inert[ui] = all && len(events) > 0
	}
	return f, nil
}

// Name implements interleave.Filter.
func (f *Independence) Name() string { return f.name }

// Canonical implements interleave.Filter.
func (f *Independence) Canonical(perm []int) (bool, int) {
	first, last := -1, -1
	for i, u := range perm {
		if f.member[u] {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || first == last {
		return true, 0
	}
	// Interfering unit between the first and last independent unit keeps
	// the interleaving un-merged.
	for i := first + 1; i < last; i++ {
		u := perm[i]
		if !f.member[u] && !f.inert[u] {
			return true, 0
		}
	}
	// Canonical: independent units in ascending unit order.
	prev := -1
	for i := first; i <= last; i++ {
		u := perm[i]
		if !f.member[u] {
			continue
		}
		if u < prev {
			return false, 0
		}
		prev = u
	}
	return true, 0
}

// CanonicalFrom implements interleave.IncrementalFilter: identical to
// Canonical, but reuses the prefix scans of the previous call for
// positions below from.
func (f *Independence) CanonicalFrom(perm []int, from int) (bool, int) {
	n := len(perm)
	if n == 0 {
		return true, 0
	}
	if f.firstMem == nil {
		f.firstMem = make([]int, n)
		f.lastMem = make([]int, n)
		f.lastBad = make([]int, n)
		f.memVal = make([]int, n)
		f.memViol = make([]bool, n)
		from = 0
	}
	if from > n {
		from = n
	}
	for i := from; i < n; i++ {
		fm, lm, lb, mv := -1, -1, -1, -1
		viol := false
		if i > 0 {
			fm, lm, lb, mv = f.firstMem[i-1], f.lastMem[i-1], f.lastBad[i-1], f.memVal[i-1]
			viol = f.memViol[i-1]
		}
		u := perm[i]
		switch {
		case f.member[u]:
			if fm < 0 {
				fm = i
			}
			lm = i
			if mv >= 0 && u < mv {
				viol = true
			}
			mv = u
		case !f.inert[u]:
			lb = i
		}
		f.firstMem[i], f.lastMem[i], f.lastBad[i], f.memVal[i] = fm, lm, lb, mv
		f.memViol[i] = viol
	}
	first, last := f.firstMem[n-1], f.lastMem[n-1]
	if first < 0 || first == last {
		return true, 0
	}
	// An interfering unit strictly between first and last keeps the
	// interleaving un-merged; position last itself is a member, so any
	// interferer at index <= last and > first sits strictly between.
	if f.lastBad[last] > first {
		return true, 0
	}
	if f.memViol[n-1] {
		return false, 0
	}
	return true, 0
}

// FailedOpsSpec declares a Failed Ops constraint (Algorithm 4):
// Predecessors are the events whose successful execution dooms every
// Successor to fail (e.g. elements already added to a set make a duplicate
// add and a remove of a missing element fail).
type FailedOpsSpec struct {
	Predecessors []event.ID
	Successors   []event.ID
}

// FailedOps implements Algorithm 4. In interleavings where every
// predecessor occurs before every successor, all successors fail, so
// permutations of the successors among their positions are equivalent; the
// filter accepts only the ascending representative.
type FailedOps struct {
	name string
	pred []bool
	succ []bool

	// Incremental state for CanonicalFrom (prefix scans, entry i depends
	// only on perm[:i+1]).
	lastPred  []int  // last predecessor position, -1 if none yet
	firstSucc []int  // first successor position, -1 if none yet
	succVal   []int  // unit index of the last successor seen, -1 if none
	succViol  []bool // a successor pair out of ascending unit order exists
}

var _ interleave.Filter = (*FailedOps)(nil)
var _ interleave.IncrementalFilter = (*FailedOps)(nil)

// NewFailedOps builds the filter from a spec.
func NewFailedOps(space *interleave.Space, spec FailedOpsSpec) (*FailedOps, error) {
	n := space.NumUnits()
	f := &FailedOps{
		name: fmt.Sprintf("failed-ops(%dp,%ds)", len(spec.Predecessors), len(spec.Successors)),
		pred: make([]bool, n),
		succ: make([]bool, n),
	}
	for _, id := range spec.Predecessors {
		ui := space.UnitOf(id)
		if ui < 0 {
			return nil, fmt.Errorf("prune: predecessor event %d not in space", id)
		}
		f.pred[ui] = true
	}
	for _, id := range spec.Successors {
		ui := space.UnitOf(id)
		if ui < 0 {
			return nil, fmt.Errorf("prune: successor event %d not in space", id)
		}
		if f.pred[ui] {
			return nil, fmt.Errorf("prune: event %d is both predecessor and successor", id)
		}
		f.succ[ui] = true
	}
	return f, nil
}

// Name implements interleave.Filter.
func (f *FailedOps) Name() string { return f.name }

// Canonical implements interleave.Filter.
func (f *FailedOps) Canonical(perm []int) (bool, int) {
	lastPred, firstSucc := -1, -1
	for i, u := range perm {
		if f.pred[u] {
			lastPred = i
		}
		if f.succ[u] && firstSucc < 0 {
			firstSucc = i
		}
	}
	if firstSucc < 0 || lastPred < 0 || lastPred > firstSucc {
		// Not every predecessor precedes every successor: the successors
		// are not uniformly doomed, no merge.
		return true, 0
	}
	// Canonical: successor units ascending.
	prev := -1
	for _, u := range perm {
		if !f.succ[u] {
			continue
		}
		if u < prev {
			return false, 0
		}
		prev = u
	}
	return true, 0
}

// CanonicalFrom implements interleave.IncrementalFilter: identical to
// Canonical, but reuses the prefix scans of the previous call for
// positions below from.
func (f *FailedOps) CanonicalFrom(perm []int, from int) (bool, int) {
	n := len(perm)
	if n == 0 {
		return true, 0
	}
	if f.lastPred == nil {
		f.lastPred = make([]int, n)
		f.firstSucc = make([]int, n)
		f.succVal = make([]int, n)
		f.succViol = make([]bool, n)
		from = 0
	}
	if from > n {
		from = n
	}
	for i := from; i < n; i++ {
		lp, fs, sv := -1, -1, -1
		viol := false
		if i > 0 {
			lp, fs, sv = f.lastPred[i-1], f.firstSucc[i-1], f.succVal[i-1]
			viol = f.succViol[i-1]
		}
		u := perm[i]
		if f.pred[u] {
			lp = i
		}
		if f.succ[u] {
			if fs < 0 {
				fs = i
			}
			if sv >= 0 && u < sv {
				viol = true
			}
			sv = u
		}
		f.lastPred[i], f.firstSucc[i], f.succVal[i] = lp, fs, sv
		f.succViol[i] = viol
	}
	lastPred, firstSucc := f.lastPred[n-1], f.firstSucc[n-1]
	if firstSucc < 0 || lastPred < 0 || lastPred > firstSucc {
		return true, 0
	}
	if f.succViol[n-1] {
		return false, 0
	}
	return true, 0
}
