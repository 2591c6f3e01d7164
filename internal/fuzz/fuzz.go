// Package fuzz implements the greybox fuzzing exploration mode the paper
// names as future work (§8: "we plan to extend the applicability and
// usefulness of ER-π for tasks such as resource profiling and fuzzing").
//
// The fuzzer is a coverage-guided mutator over interleavings, in the style
// of greybox fuzzers for distributed systems (Mallory/Meng et al., cited
// by the paper): it keeps a corpus of interesting interleavings, derives
// new candidates by order mutations (adjacent swaps, block moves, segment
// reversals), and considers a candidate interesting when its execution
// produces an outcome signature never seen before. Unlike the Rand
// baseline — which samples the n! space uniformly and mostly revisits
// behaviourally equivalent orders — the fuzzer spends its budget on orders
// that change observable behaviour.
//
// Exploration is organized in generations so the feedback loop
// parallelizes (DESIGN.md §4.14): a whole generation of mutated children
// is synthesized from the current corpus up front — seeded and
// order-deterministic — then executed (by any number of workers, in any
// order), and the corpus evolves exactly once when every child of the
// generation has been classified. Classification is keyed by interleaving
// key, not arrival order, so the corpus trajectory is a pure function of
// (seed, generation size, classification outcomes): identical at Workers
// 1 and 8, in process and under the distributed coordinator.
package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"

	"github.com/er-pi/erpi/internal/interleave"
)

// Generation sizing defaults. A fixed size can be configured via
// SetGenerationSize; size 0 selects adaptive sizing, which starts at
// DefaultGenerationSize and reacts to the corpus-novelty rate of each
// completed generation: a cold corpus (almost nothing novel) doubles the
// generation to amortize the evolve barrier, a hot corpus (lots of novel
// behaviour) halves it so children mutate from the freshest corpus.
const (
	DefaultGenerationSize = 32
	minGenerationSize     = 8
	maxGenerationSize     = 256
	// growNoveltyBelow / shrinkNoveltyAbove bound the adaptive band.
	growNoveltyBelow   = 0.05
	shrinkNoveltyAbove = 0.25
)

// DefaultRetries bounds consecutive duplicate mutations before a
// generation is declared as deep as the reachable space allows; an empty
// generation after that bound means the space is exhausted.
const DefaultRetries = 100000

// child is one synthesized interleaving of the current generation,
// tracked from synthesis through classification to corpus evolution.
type child struct {
	perm []int
	il   interleave.Interleaving
	key  string
	sig  string
	done bool // classified: executed (sig set) or dropped
	drop bool // no corpus evidence: dedup/quarantine/fault-armed
}

// Explorer is a coverage-guided interleaving generator. It implements
// interleave.Explorer; feedback arrives keyed by interleaving key through
// ReportOutcome/ReportDropped (or positionally through the legacy Report)
// after executing each emitted interleaving.
type Explorer struct {
	space *interleave.Space
	rng   *rand.Rand

	// corpus holds the unit permutations that produced novel behaviour.
	corpus [][]int
	// seen dedups synthesized interleavings; coverage dedups signatures.
	seen     map[string]bool
	coverage map[string]bool

	// buf is the synthesized-but-not-yet-emitted tail of the current
	// generation; emitted holds the generation's emitted children in emit
	// order, byKey indexes them for classification.
	buf     []*child
	emitted []*child
	byKey   map[string]*child
	pending int // emitted children not yet classified
	fifo    int // scan cursor for the legacy positional Report

	genSize     int // fixed generation size; 0 = adaptive
	curSize     int // current generation size target
	generations int // completed (evolved) generations
	novelty     float64
	explored    int
	maxRetries  int
	exhausted   bool

	// traj folds every corpus admission (generation number, interleaving
	// key, signature) into a running digest — the cross-engine trajectory
	// parity pin.
	traj hash.Hash
}

var _ interleave.Explorer = (*Explorer)(nil)
var _ interleave.PivotExplorer = (*Explorer)(nil)

// New returns a fuzzing explorer seeded with the recording order, using
// adaptive generation sizing.
func New(space *interleave.Space, seed int64) *Explorer {
	identity := make([]int, space.NumUnits())
	for i := range identity {
		identity[i] = i
	}
	return &Explorer{
		space:      space,
		rng:        rand.New(rand.NewSource(seed)),
		corpus:     [][]int{identity},
		seen:       make(map[string]bool),
		coverage:   make(map[string]bool),
		byKey:      make(map[string]*child),
		curSize:    DefaultGenerationSize,
		maxRetries: DefaultRetries,
		traj:       sha256.New(),
	}
}

// Mode implements interleave.Explorer.
func (f *Explorer) Mode() string { return "fuzz" }

// Explored implements interleave.Explorer.
func (f *Explorer) Explored() int { return f.explored }

// CorpusSize returns the number of behaviour-novel interleavings kept.
func (f *Explorer) CorpusSize() int { return len(f.corpus) }

// Coverage returns the number of distinct behaviour signatures observed.
func (f *Explorer) Coverage() int { return len(f.coverage) }

// Generations returns how many generations have completed (evolved).
func (f *Explorer) Generations() int { return f.generations }

// NoveltyRate returns the fraction of the last completed generation's
// executed children whose signature was novel (0 before any generation
// completes).
func (f *Explorer) NoveltyRate() float64 { return f.novelty }

// Exhausted reports that Next declared the reachable mutation space
// exhausted: the retry bound produced no unseen child for a whole
// generation. Classifications for already-emitted children are still
// accepted after exhaustion — nothing pending is silently dropped.
func (f *Explorer) Exhausted() bool { return f.exhausted }

// Pending returns how many emitted children of the current generation are
// not yet classified.
func (f *Explorer) Pending() int { return f.pending }

// GenerationEnd reports that the current generation's synthesis buffer is
// drained: every synthesized child has been emitted, and the corpus must
// evolve (once all emitted children are classified) before Next can
// synthesize the next generation. Engines use it as their quiesce
// barrier.
func (f *Explorer) GenerationEnd() bool {
	return len(f.buf) == 0 && len(f.emitted) > 0
}

// SetMaxRetries tunes the consecutive-duplicate bound after which a
// generation stops growing (and, when it ends up empty, Next declares the
// reachable space exhausted).
func (f *Explorer) SetMaxRetries(n int) {
	if n > 0 {
		f.maxRetries = n
	}
}

// SetGenerationSize fixes the generation size to n children; n <= 0
// restores the default adaptive sizing.
func (f *Explorer) SetGenerationSize(n int) {
	switch {
	case n > 0:
		f.genSize = n
		f.curSize = n
	default:
		f.genSize = 0
		f.curSize = DefaultGenerationSize
	}
}

// Next implements interleave.Explorer: emit the next child of the current
// generation, synthesizing a fresh generation from the corpus when the
// buffer is empty. Synthesis only happens at a generation boundary, after
// the corpus evolved over the previous generation's classifications —
// callers that drive Next concurrently must therefore hold it back until
// the generation is classified (the engines' evolve barrier); emitted
// children may be classified in any order. A driver that crosses the
// boundary with classifications still pending extends the open generation
// instead of evolving (deterministically, from the unevolved corpus) —
// nothing pending is ever dropped.
func (f *Explorer) Next() (interleave.Interleaving, bool) {
	if f.exhausted {
		return nil, false
	}
	if len(f.buf) == 0 {
		f.Evolve()
		f.synthesize()
		if len(f.buf) == 0 {
			f.exhausted = true
			return nil, false
		}
	}
	c := f.buf[0]
	f.buf = f.buf[1:]
	f.emitted = append(f.emitted, c)
	f.byKey[c.key] = c
	f.pending++
	f.explored++
	return c.il, true
}

// NextPivot implements interleave.PivotExplorer: the event depth where
// the next buffered child diverges from the one just emitted. The
// generation is sorted by event sequence, so consecutive children share
// maximal prefixes — the depth the prefix cache should snapshot at.
func (f *Explorer) NextPivot() int {
	if len(f.buf) == 0 || len(f.emitted) == 0 {
		return -1
	}
	prev, next := f.emitted[len(f.emitted)-1].il, f.buf[0].il
	n := 0
	for n < len(prev) && n < len(next) && prev[n] == next[n] {
		n++
	}
	return n
}

// ReportOutcome classifies an emitted child by its interleaving key with
// the behaviour signature its execution produced. Classifications are
// idempotent per key and may arrive in any order; unknown keys are
// ignored. They are accepted even after Next returned ok=false — the
// exhaustion path never silently drops a pending classification.
func (f *Explorer) ReportOutcome(key, signature string) {
	c := f.byKey[key]
	if c == nil || c.done {
		return
	}
	c.done = true
	c.sig = signature
	f.pending--
}

// ReportDropped classifies an emitted child as producing no corpus
// evidence: its execution was skipped (dedup, subsumption), quarantined,
// or ran fault-armed (a fault-carrying replay's signature reflects the
// fault schedule, not the order mutation, so it must not steer the
// corpus — the fuzz analog of the prefix cache's clean-genesis bypass).
func (f *Explorer) ReportDropped(key string) {
	c := f.byKey[key]
	if c == nil || c.done {
		return
	}
	c.done = true
	c.drop = true
	f.pending--
}

// Report feeds back the behaviour signature of the oldest unclassified
// emitted child — the legacy positional protocol for strictly sequential
// drivers (Next, execute, Report, repeat). Engines use the key-addressed
// ReportOutcome/ReportDropped instead.
func (f *Explorer) Report(signature string) {
	for f.fifo < len(f.emitted) && f.emitted[f.fifo].done {
		f.fifo++
	}
	if f.fifo >= len(f.emitted) {
		return
	}
	c := f.emitted[f.fifo]
	c.done = true
	c.sig = signature
	f.pending--
}

// Evolve completes the current generation: every classified-novel child
// joins the corpus (in emit order, so evolution is deterministic), the
// novelty rate adapts the next generation's size, and the trajectory
// digest folds in the admissions. A no-op unless the generation is fully
// emitted AND fully classified — an unclassified child is never silently
// dropped (the bug the pre-generation fuzzer had at space exhaustion);
// its classification can arrive arbitrarily late, even after Next
// declared exhaustion, and the evidence still reaches the corpus at the
// next Evolve. Exported so engines can run it at their quiesce barrier,
// under a telemetry span; Next calls it implicitly at each boundary.
func (f *Explorer) Evolve() {
	if len(f.buf) > 0 || len(f.emitted) == 0 || f.pending > 0 {
		return
	}
	executed, novel := 0, 0
	fmt.Fprintf(f.traj, "g%d:", f.generations+1)
	for _, c := range f.emitted {
		if c.drop {
			continue
		}
		executed++
		if !f.coverage[c.sig] {
			f.coverage[c.sig] = true
			f.corpus = append(f.corpus, c.perm)
			novel++
			fmt.Fprintf(f.traj, "%s=%s;", c.key, c.sig)
		}
	}
	f.novelty = 0
	if executed > 0 {
		f.novelty = float64(novel) / float64(executed)
	}
	if f.genSize == 0 && executed > 0 {
		switch {
		case f.novelty < growNoveltyBelow && f.curSize < maxGenerationSize:
			f.curSize *= 2
		case f.novelty > shrinkNoveltyAbove && f.curSize > minGenerationSize:
			f.curSize /= 2
		}
	}
	f.generations++
	f.emitted = f.emitted[:0]
	f.byKey = make(map[string]*child)
	f.fifo = 0
	f.pending = 0
}

// TrajectoryDigest returns the hex digest of every corpus admission so
// far (generation number, interleaving key, signature, in admission
// order). Two runs with equal digests grew byte-identical corpora through
// identical generations — the pin the Workers 1 vs 8 parity suite and
// BENCH_fuzz.json compare.
func (f *Explorer) TrajectoryDigest() string {
	return hex.EncodeToString(f.traj.Sum(nil))
}

// synthesize fills the next generation's buffer with unseen mutated
// children of the current corpus. The mutation depth escalates with
// consecutive duplicates so the fuzzer escapes saturated neighbourhoods;
// the finished generation is sorted by event sequence so consecutive
// emissions share maximal prefixes (prefix-cache locality — children of
// one corpus parent mostly differ near their mutation point).
func (f *Explorer) synthesize() {
	target := f.curSize
	dup := 0
	for len(f.buf) < target && dup < f.maxRetries {
		parent := f.corpus[f.rng.Intn(len(f.corpus))]
		depth := 1 + f.rng.Intn(2) + dup/50
		candidate := f.mutate(parent, depth)
		il := f.space.Flatten(candidate)
		key := il.Key()
		if f.seen[key] {
			dup++
			continue
		}
		dup = 0
		f.seen[key] = true
		f.buf = append(f.buf, &child{perm: candidate, il: il, key: key})
	}
	sort.Slice(f.buf, func(i, j int) bool {
		a, b := f.buf[i].il, f.buf[j].il
		for n := 0; n < len(a) && n < len(b); n++ {
			if a[n] != b[n] {
				return a[n] < b[n]
			}
		}
		return len(a) < len(b)
	})
}

// mutate derives a child permutation by stacking `depth` order mutations.
func (f *Explorer) mutate(parent []int, depth int) []int {
	child := make([]int, len(parent))
	copy(child, parent)
	for d := 0; d < depth; d++ {
		f.mutateOnce(child)
	}
	return child
}

func (f *Explorer) mutateOnce(child []int) {
	n := len(child)
	if n < 2 {
		return
	}
	switch f.rng.Intn(3) {
	case 0: // adjacent swap: the minimal reordering
		i := f.rng.Intn(n - 1)
		child[i], child[i+1] = child[i+1], child[i]
	case 1: // block move: lift one unit to another position (in place)
		from := f.rng.Intn(n)
		to := f.rng.Intn(n)
		u := child[from]
		if from < to {
			copy(child[from:to], child[from+1:to+1])
		} else {
			copy(child[to+1:from+1], child[to:from])
		}
		child[to] = u
	default: // segment reversal
		i := f.rng.Intn(n)
		j := f.rng.Intn(n)
		if i > j {
			i, j = j, i
		}
		for a, b := i, j; a < b; a, b = a+1, b-1 {
			child[a], child[b] = child[b], child[a]
		}
	}
}
