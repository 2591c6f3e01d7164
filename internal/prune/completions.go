package prune

import (
	"fmt"
	"slices"

	"github.com/er-pi/erpi/internal/event"
	"github.com/er-pi/erpi/internal/interleave"
)

// Completions tells apart event prefixes that the pruned space completes
// differently, for state subsumption (DESIGN.md §4.12): a frontier reached
// through one prefix may stand for another only if both are extended by
// the same completions. Replica-specific pruning keeps an interleaving or
// not by its trailing block of free units, which can begin inside a
// prefix. Independence and failed-ops pruning need no part in it: a
// completion they reject has a representative they keep with the same
// outcome.
type Completions struct {
	unit      []int    // event ID -> unit index
	impacting [][]bool // per distinct tested replica, per unit
}

// NewCompletions builds the classifier for a log pruned under cfg, or nil
// when cfg tests no replica and every prefix completes alike.
func NewCompletions(log *event.Log, cfg Config) (*Completions, error) {
	reps := slices.Clone(cfg.TestedReplicas)
	slices.Sort(reps)
	reps = slices.Compact(reps)
	if len(reps) == 0 {
		return nil, nil
	}
	if len(reps) > 32 {
		return nil, fmt.Errorf("prune: %d tested replicas, at most 32 classify prefixes", len(reps))
	}
	space, err := GroupedSpace(log, cfg.Grouping)
	if err != nil {
		return nil, err
	}
	c := &Completions{unit: make([]int, log.Len())}
	for id := range c.unit {
		c.unit[id] = space.UnitOf(event.ID(id))
	}
	for _, r := range reps {
		imp := make([]bool, space.NumUnits())
		for ui := range imp {
			imp[ui] = UnitImpacts(space, ui, r)
		}
		c.impacting = append(c.impacting, imp)
	}
	return c, nil
}

// Key classifies the prefix, two bits per tested replica (0 for every
// prefix of a nil Completions). A completion that impacts the replica is
// kept whatever the prefix. One that does not is kept after a prefix with
// a free unit before an impacting one (class 1); only while the free units
// stay ascending after one whose free units all trail its last impacting
// unit in ascending order (class 0); and never after one whose trailing
// free units descend (class 2). Prefixes over the same events have the
// same free units, so within a class they keep the same completions.
func (c *Completions) Key(prefix interleave.Interleaving) uint64 {
	if c == nil {
		return 0
	}
	var key uint64
	for i, imp := range c.impacting {
		class, lastFree, prev := uint64(0), -1, -1
		for _, id := range prefix {
			u := c.unit[id]
			if u == prev {
				continue // the rest of a unit adds nothing
			}
			prev = u
			if imp[u] {
				if lastFree >= 0 {
					class = 1
					break
				}
				continue
			}
			if u < lastFree {
				class = 2 // unless an impacting unit follows
			}
			lastFree = u
		}
		key |= class << (2 * i)
	}
	return key
}

// Keeps reports whether the pruned space keeps a prefix of class w over
// prefix's events followed by suffix: per tested replica, suffix impacts
// it, w's prefixes keep every completion (class 1), or w's trailing free
// units ascend (class 0) and suffix's free units go on ascending from
// above the prefix's greatest one. A nil Completions keeps every suffix.
func (c *Completions) Keeps(w uint64, prefix, suffix interleave.Interleaving) bool {
	if c == nil || len(suffix) == 0 {
		return true
	}
	for i, imp := range c.impacting {
		class := w >> (2 * i) & 3
		if class == 1 {
			continue
		}
		top := -1
		for _, id := range prefix {
			if u := c.unit[id]; !imp[u] {
				top = max(top, u)
			}
		}
		impacts, ascends, prev := false, class == 0, c.unit[prefix[len(prefix)-1]]
		for _, id := range suffix {
			u := c.unit[id]
			if u == prev {
				continue // the rest of the prefix's last unit
			}
			prev = u
			impacts = impacts || imp[u]
			ascends = ascends && u > top
			top = u
		}
		if !impacts && !ascends {
			return false
		}
	}
	return true
}

// Covers reports whether a prefix of class w is kept with every
// completion a prefix of class x over the same events is kept with: per
// tested replica, the classes are equal, w's keeps every completion
// (class 1), or x's keeps only completions that impact the replica
// (class 2).
func (c *Completions) Covers(w, x uint64) bool {
	if c == nil {
		return true
	}
	for i := range c.impacting {
		cw, cx := w>>(2*i)&3, x>>(2*i)&3
		if cw != cx && cw != 1 && cx != 2 {
			return false
		}
	}
	return true
}
