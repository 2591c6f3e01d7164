package interleave

import (
	"math/rand"
)

// Filter decides which unit permutations survive pruning. ER-π's pruning
// rules merge equivalence classes of interleavings; a Filter implements the
// merge by accepting exactly one canonical representative per class.
type Filter interface {
	// Name identifies the rule (used in ablation reports).
	Name() string
	// Canonical reports whether perm is the canonical representative of its
	// equivalence class. When it is not, prefixLen may name the length of
	// the shortest prefix that already rules out canonicity, letting the
	// explorer skip the whole subtree of permutations sharing that prefix;
	// prefixLen == 0 means "unknown, skip only this permutation".
	Canonical(perm []int) (ok bool, prefixLen int)
}

// IncrementalFilter is an optional Filter extension for filters whose
// canonicity test is a prefix scan. CanonicalFrom(perm, from) must return
// exactly what Canonical(perm) would, but may assume perm[:from] is
// unchanged since this instance's previous CanonicalFrom call, reusing
// any per-prefix state it kept (from == 0 makes no assumption and
// rebuilds everything). Lexicographic enumeration advances permutations
// mostly near the tail, so the DFS explorer tracks the first index it
// changed since each filter last ran and hands it in as from, turning the
// per-permutation filter cost from O(n) into O(n - from) amortized.
//
// Implementations are stateful and therefore not safe for concurrent use
// or for sharing between explorers; calls to the plain Canonical must not
// disturb the incremental state.
type IncrementalFilter interface {
	Filter
	CanonicalFrom(perm []int, from int) (ok bool, prefixLen int)
}

// Explorer yields interleavings one at a time.
type Explorer interface {
	// Next returns the next interleaving, or ok=false when the space is
	// exhausted.
	Next() (Interleaving, bool)
	// Explored returns how many interleavings have been yielded so far.
	Explored() int
	// Mode names the exploration strategy ("erpi", "dfs", "rand").
	Mode() string
}

// DFSExplorer enumerates unit permutations in lexicographic depth-first
// order, optionally skipping permutations rejected by pruning filters.
// This implements both the paper's plain-DFS baseline (no filters, one
// event per unit) and ER-π's pruned exploration (grouped units + filters).
type DFSExplorer struct {
	space    *Space
	filters  []Filter
	inc      []IncrementalFilter // inc[i] is filters[i] or nil (parallel)
	dirty    []int               // per filter: first index changed since it last ran
	perm     []int
	done     bool
	started  bool
	explored int
	mode     string
}

var _ Explorer = (*DFSExplorer)(nil)

// NewDFS returns the plain exhaustive DFS baseline over the space.
func NewDFS(space *Space) *DFSExplorer {
	return &DFSExplorer{space: space, perm: identityPerm(space.NumUnits()), mode: "dfs"}
}

// NewPruned returns ER-π's pruned explorer: DFS over units yielding only
// permutations accepted as canonical by every filter.
func NewPruned(space *Space, filters ...Filter) *DFSExplorer {
	d := &DFSExplorer{
		space:   space,
		filters: filters,
		inc:     make([]IncrementalFilter, len(filters)),
		dirty:   make([]int, len(filters)), // zero: nothing validated yet
		perm:    identityPerm(space.NumUnits()),
		mode:    "erpi",
	}
	for i, f := range filters {
		if incf, ok := f.(IncrementalFilter); ok {
			d.inc[i] = incf
		}
	}
	return d
}

// Mode implements Explorer.
func (d *DFSExplorer) Mode() string { return d.mode }

// Explored implements Explorer.
func (d *DFSExplorer) Explored() int { return d.explored }

// Next implements Explorer.
func (d *DFSExplorer) Next() (Interleaving, bool) {
	for {
		if d.done {
			return nil, false
		}
		if d.started {
			changed, ok := nextPermutation(d.perm)
			if !ok {
				d.done = true
				return nil, false
			}
			d.touched(changed)
		}
		d.started = true
		if skip, prefix := d.rejected(); skip {
			if prefix > 0 && prefix < len(d.perm) {
				changed, ok := skipPrefix(d.perm, prefix)
				if !ok {
					d.done = true
					return nil, false
				}
				d.touched(changed)
				// skipPrefix already advanced to a fresh permutation;
				// re-evaluate it without another nextPermutation step.
				d.started = false
			}
			continue
		}
		d.explored++
		return d.space.Flatten(d.perm), true
	}
}

// PivotExplorer is implemented by explorers that can predict where their
// next yield will diverge from the current one, letting a prefix cache
// snapshot exactly where the next lookup lands.
type PivotExplorer interface {
	// NextPivot returns the event depth of the longest prefix the most
	// recently yielded interleaving shares with the next one the explorer
	// will yield, or -1 when unknown (not started, exhausted, or the
	// strategy is non-sequential). The value is an upper bound: pruning
	// filters may reject the immediate successor and push the real
	// divergence shallower.
	NextPivot() int
}

var _ PivotExplorer = (*DFSExplorer)(nil)

// NextPivot implements PivotExplorer for lexicographic enumeration: the
// next permutation changes the current one from its rightmost ascent
// onward, so the shared prefix is exactly the units before that pivot,
// converted to an event depth.
func (d *DFSExplorer) NextPivot() int {
	if !d.started || d.done {
		return -1
	}
	// Rightmost ascent scan, mirroring nextPermutation without mutating.
	i := len(d.perm) - 2
	for i >= 0 && d.perm[i] >= d.perm[i+1] {
		i--
	}
	if i < 0 {
		return -1 // current permutation is the last one
	}
	depth := 0
	for _, ui := range d.perm[:i] {
		depth += len(d.space.units[ui].Events)
	}
	return depth
}

// Perm returns a copy of the current unit permutation (the one most
// recently yielded). Only meaningful after a successful Next.
func (d *DFSExplorer) Perm() []int {
	out := make([]int, len(d.perm))
	copy(out, d.perm)
	return out
}

// touched records that perm[changed:] may differ from what each filter
// last validated. Filters the current rejected() pass never reached keep
// accumulating the minimum, so their next evaluation rescans far enough.
func (d *DFSExplorer) touched(changed int) {
	for i := range d.dirty {
		if changed < d.dirty[i] {
			d.dirty[i] = changed
		}
	}
}

func (d *DFSExplorer) rejected() (skip bool, prefixLen int) {
	for fi, f := range d.filters {
		var ok bool
		var prefix int
		if incf := d.inc[fi]; incf != nil {
			ok, prefix = incf.CanonicalFrom(d.perm, d.dirty[fi])
			// The filter's prefix state now covers the whole permutation,
			// whether it accepted or rejected.
			d.dirty[fi] = len(d.perm)
		} else {
			ok, prefix = f.Canonical(d.perm)
		}
		if !ok {
			return true, prefix
		}
	}
	return false, 0
}

// RandExplorer yields uniformly random interleavings without repetition,
// the paper's Rand baseline. It keeps a cache of already-produced
// permutation keys; the repeated shuffling needed to escape the cache is
// what makes Rand the slowest mode in the paper's Figure 8b.
type RandExplorer struct {
	space *Space
	rng   *rand.Rand
	seen  map[string]struct{}
	perm  []int
	// size is the space's n! permutations, or -1 past int64: once that
	// many are seen, only duplicates remain.
	size     int64
	explored int
	shuffles int
	// maxRetries bounds consecutive duplicate shuffles before the explorer
	// declares the space (effectively) exhausted.
	maxRetries int
}

var _ Explorer = (*RandExplorer)(nil)

// DefaultRandRetries is the consecutive-duplicate bound after which the
// random explorer gives up.
const DefaultRandRetries = 100000

// NewRand returns the Rand baseline explorer with a deterministic seed.
func NewRand(space *Space, seed int64) *RandExplorer {
	size := int64(-1)
	if n := space.Size(); n.IsInt64() {
		size = n.Int64()
	}
	return &RandExplorer{
		space:      space,
		rng:        rand.New(rand.NewSource(seed)),
		seen:       make(map[string]struct{}),
		perm:       identityPerm(space.NumUnits()),
		size:       size,
		maxRetries: DefaultRandRetries,
	}
}

// Mode implements Explorer.
func (r *RandExplorer) Mode() string { return "rand" }

// Explored implements Explorer.
func (r *RandExplorer) Explored() int { return r.explored }

// Shuffles returns the total number of shuffle attempts, including the
// duplicates discarded by the cache. The excess over Explored measures the
// wasted work the paper attributes to Rand.
func (r *RandExplorer) Shuffles() int { return r.shuffles }

// CacheSize returns the number of cached interleaving keys; the resource
// that the succeed-or-crash micro-benchmark (paper Fig. 10) exhausts.
func (r *RandExplorer) CacheSize() int { return len(r.seen) }

// Next implements Explorer.
func (r *RandExplorer) Next() (Interleaving, bool) {
	for attempt := 0; attempt < r.maxRetries; attempt++ {
		if r.size >= 0 && int64(len(r.seen)) >= r.size {
			return nil, false
		}
		r.shuffles++
		r.rng.Shuffle(len(r.perm), func(i, j int) {
			r.perm[i], r.perm[j] = r.perm[j], r.perm[i]
		})
		il := r.space.Flatten(r.perm)
		key := il.Key()
		if _, dup := r.seen[key]; dup {
			continue
		}
		r.seen[key] = struct{}{}
		r.explored++
		return il, true
	}
	return nil, false
}

// Collect drains up to limit interleavings from an explorer. A limit of 0
// drains the explorer completely (use only on small spaces).
func Collect(e Explorer, limit int) []Interleaving {
	var out []Interleaving
	for {
		il, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, il)
		if limit > 0 && len(out) >= limit {
			return out
		}
	}
}
