package datalog

import (
	"errors"
	"fmt"
	"strconv"

	"github.com/er-pi/erpi/internal/interleave"
)

// ErrBudgetExhausted reports that the store's fact budget is spent — the
// "exhausted all allocated resources, causing the system to crash"
// condition of the paper's Figure 10 micro-benchmark.
var ErrBudgetExhausted = errors.New("datalog: fact budget exhausted")

// Store persists interleavings as Datalog facts:
//
//	il("3,0,1,2").
//	pos("3,0,1,2", 0, "e3").
//
// and answers membership and pruning queries over them. MaxFacts, when
// non-zero, bounds the total fact count; Record fails with
// ErrBudgetExhausted beyond it.
type Store struct {
	db       *DB
	MaxFacts int
}

// FactsPerInterleaving is what Record adds for one interleaving of n
// events: one il/1 fact and one pos/3 fact per event.
func FactsPerInterleaving(n int) int { return 1 + n }

// NewStore returns an empty interleaving store.
func NewStore() *Store {
	return &Store{db: NewDB()}
}

// DB exposes the underlying database for ad-hoc queries.
func (s *Store) DB() *DB { return s.db }

// Record persists one interleaving. Duplicate records are no-ops.
func (s *Store) Record(il interleave.Interleaving) error {
	key := il.Key()
	if s.db.Holds("il", key) {
		return nil
	}
	if s.MaxFacts > 0 && s.db.Size()+FactsPerInterleaving(len(il)) > s.MaxFacts {
		return fmt.Errorf("recording interleaving %s: %w", key, ErrBudgetExhausted)
	}
	s.db.Assert(Fact{Pred: "il", Args: []string{key}})
	for idx, ev := range il {
		s.db.Assert(Fact{Pred: "pos", Args: []string{
			key,
			strconv.Itoa(idx),
			"e" + strconv.Itoa(int(ev)),
		}})
	}
	return nil
}

// Recorded reports whether an interleaving was persisted.
func (s *Store) Recorded(il interleave.Interleaving) bool {
	return s.db.Holds("il", il.Key())
}

// Count returns the number of persisted interleavings.
func (s *Store) Count() int { return s.db.Count("il") }

// FactCount returns the total number of facts (the budgeted resource).
func (s *Store) FactCount() int { return s.db.Size() }

// Prune evaluates the given rules (which may derive a `drop(I)` predicate
// over interleaving keys) and returns the keys of interleavings NOT
// dropped, sorted.
func (s *Store) Prune(rules []Rule) ([]string, error) {
	prog, err := NewProgram(rules...)
	if err != nil {
		return nil, err
	}
	if err := prog.Eval(s.db); err != nil {
		return nil, err
	}
	var kept []string
	for _, f := range s.db.Facts("il") {
		key := f.Args[0]
		if !s.db.Holds("drop", key) {
			kept = append(kept, key)
		}
	}
	return kept, nil
}
