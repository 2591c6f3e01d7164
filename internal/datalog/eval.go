package datalog

import (
	"fmt"
	"sort"
	"strconv"
)

// DB holds the extensional and derived facts of one evaluation.
type DB struct {
	// relations maps predicate -> tuple key -> args.
	relations map[string]map[string][]string
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{relations: make(map[string]map[string][]string)}
}

// Assert adds a ground fact, reporting whether it was new.
func (db *DB) Assert(f Fact) bool {
	rel, ok := db.relations[f.Pred]
	if !ok {
		rel = make(map[string][]string)
		db.relations[f.Pred] = rel
	}
	k := f.key()
	if _, dup := rel[k]; dup {
		return false
	}
	args := make([]string, len(f.Args))
	copy(args, f.Args)
	rel[k] = args
	return true
}

// Holds reports whether the exact tuple is present.
func (db *DB) Holds(pred string, args ...string) bool {
	rel, ok := db.relations[pred]
	if !ok {
		return false
	}
	_, present := rel[Fact{Pred: pred, Args: args}.key()]
	return present
}

// Facts returns all tuples of a predicate, sorted for determinism.
func (db *DB) Facts(pred string) []Fact {
	rel := db.relations[pred]
	out := make([]Fact, 0, len(rel))
	for _, args := range rel {
		cp := make([]string, len(args))
		copy(cp, args)
		out = append(out, Fact{Pred: pred, Args: cp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// tuples snapshots a predicate's tuples, unsorted and shared, for the
// rule evaluator: it asserts into the relation while it walks them, and
// it only reads them. The fixpoint is a set, so the order of derivation
// cannot change it.
func (db *DB) tuples(pred string) [][]string {
	rel := db.relations[pred]
	out := make([][]string, 0, len(rel))
	for _, args := range rel {
		out = append(out, args)
	}
	return out
}

// Count returns the number of tuples of a predicate.
func (db *DB) Count(pred string) int { return len(db.relations[pred]) }

// Size returns the total number of facts across all predicates.
func (db *DB) Size() int {
	n := 0
	for _, rel := range db.relations {
		n += len(rel)
	}
	return n
}

// Program is a set of rules evaluated to fixpoint over a DB.
type Program struct {
	rules []Rule
}

// NewProgram validates and collects rules.
func NewProgram(rules ...Rule) (*Program, error) {
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
	}
	cp := make([]Rule, len(rules))
	copy(cp, rules)
	return &Program{rules: cp}, nil
}

// stratify assigns each rule to a stratum such that negated dependencies
// are strictly lower. Returns an error for negation cycles.
func (p *Program) stratify() ([][]Rule, error) {
	// Collect head predicates (IDB).
	idb := make(map[string]bool)
	for _, r := range p.rules {
		idb[r.Head.Pred] = true
	}
	stratum := make(map[string]int)
	changed := true
	n := len(p.rules) + 1
	for iter := 0; changed; iter++ {
		if iter > n*n+1 {
			return nil, fmt.Errorf("datalog: program is not stratifiable (negation cycle)")
		}
		changed = false
		for _, r := range p.rules {
			h := r.Head.Pred
			for _, l := range r.Body {
				if l.Compare != "" || !idb[l.Atom.Pred] {
					continue
				}
				need := stratum[l.Atom.Pred]
				if l.Negated {
					need++
				}
				if stratum[h] < need {
					stratum[h] = need
					changed = true
				}
			}
		}
	}
	maxS := 0
	for _, s := range stratum {
		if s > maxS {
			maxS = s
		}
	}
	out := make([][]Rule, maxS+1)
	for _, r := range p.rules {
		s := stratum[r.Head.Pred]
		out[s] = append(out[s], r)
	}
	return out, nil
}

// Eval runs the program to fixpoint over the database, mutating it in
// place. Evaluation is stratum by stratum, semi-naive within each stratum.
func (p *Program) Eval(db *DB) error {
	strata, err := p.stratify()
	if err != nil {
		return err
	}
	for _, rules := range strata {
		if err := evalStratum(db, rules); err != nil {
			return err
		}
	}
	return nil
}

func evalStratum(db *DB, rules []Rule) error {
	// Naive-with-delta: iterate until no rule derives a new fact. The
	// delta optimization tracks which predicates changed last round and
	// skips rules whose positive body mentions none of them.
	changedPreds := make(map[string]bool)
	first := true
	for {
		roundChanged := make(map[string]bool)
		derivedAny := false
		for _, r := range rules {
			if !first && !ruleTouches(r, changedPreds) {
				continue
			}
			bindings := make(map[string]string)
			derived, err := applyRule(db, r, 0, bindings)
			if err != nil {
				return err
			}
			if derived {
				roundChanged[r.Head.Pred] = true
				derivedAny = true
			}
		}
		if !derivedAny {
			return nil
		}
		changedPreds = roundChanged
		first = false
	}
}

func ruleTouches(r Rule, changed map[string]bool) bool {
	for _, l := range r.Body {
		if l.Compare == "" && !l.Negated && changed[l.Atom.Pred] {
			return true
		}
	}
	return false
}

// applyRule enumerates bindings for body literals from index i onward,
// asserting head instantiations; returns whether any new fact was derived.
func applyRule(db *DB, r Rule, i int, bindings map[string]string) (bool, error) {
	if i == len(r.Body) {
		head, err := substituteAtom(r.Head, bindings)
		if err != nil {
			return false, err
		}
		return db.Assert(Fact{Pred: head.Pred, Args: groundArgs(head)}), nil
	}
	l := r.Body[i]
	if l.Compare != "" {
		ok, err := evalCompare(l, bindings)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
		return applyRule(db, r, i+1, bindings)
	}
	if l.Negated {
		atom, err := substituteAtom(l.Atom, bindings)
		if err != nil {
			return false, err
		}
		if db.Holds(atom.Pred, groundArgs(atom)...) {
			return false, nil
		}
		return applyRule(db, r, i+1, bindings)
	}
	derived := false
	for _, args := range db.tuples(l.Atom.Pred) {
		newBindings, ok := unify(l.Atom, args, bindings)
		if !ok {
			continue
		}
		d, err := applyRule(db, r, i+1, newBindings)
		if err != nil {
			return false, err
		}
		derived = derived || d
	}
	return derived, nil
}

// unify matches an atom pattern against a ground tuple under existing
// bindings, returning extended bindings.
func unify(pattern Atom, args []string, bindings map[string]string) (map[string]string, bool) {
	if len(pattern.Terms) != len(args) {
		return nil, false
	}
	out := bindings
	copied := false
	for i, t := range pattern.Terms {
		val := args[i]
		if !t.Var {
			if t.Value != val {
				return nil, false
			}
			continue
		}
		if t.Value == "_" {
			continue
		}
		if bound, ok := out[t.Value]; ok {
			if bound != val {
				return nil, false
			}
			continue
		}
		if !copied {
			cp := make(map[string]string, len(out)+1)
			for k, v := range out {
				cp[k] = v
			}
			out, copied = cp, true
		}
		out[t.Value] = val
	}
	return out, true
}

func substituteAtom(a Atom, bindings map[string]string) (Atom, error) {
	out := Atom{Pred: a.Pred, Terms: make([]Term, len(a.Terms))}
	for i, t := range a.Terms {
		if !t.Var {
			out.Terms[i] = t
			continue
		}
		v, ok := bindings[t.Value]
		if !ok {
			return Atom{}, fmt.Errorf("datalog: unbound variable %s in %s", t.Value, a)
		}
		out.Terms[i] = Const(v)
	}
	return out, nil
}

func groundArgs(a Atom) []string {
	out := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		out[i] = t.Value
	}
	return out
}

func evalCompare(l Literal, bindings map[string]string) (bool, error) {
	resolve := func(t Term) (string, error) {
		if !t.Var {
			return t.Value, nil
		}
		v, ok := bindings[t.Value]
		if !ok {
			return "", fmt.Errorf("datalog: unbound variable %s in comparison", t.Value)
		}
		return v, nil
	}
	ls, err := resolve(l.Left)
	if err != nil {
		return false, err
	}
	rs, err := resolve(l.Right)
	if err != nil {
		return false, err
	}
	ln, lerr := strconv.Atoi(ls)
	rn, rerr := strconv.Atoi(rs)
	numeric := lerr == nil && rerr == nil
	switch l.Compare {
	case OpEQ:
		return ls == rs, nil
	case OpNE:
		return ls != rs, nil
	}
	if !numeric {
		return false, fmt.Errorf("datalog: ordered comparison %s needs integers, got %q %q", l.Compare, ls, rs)
	}
	switch l.Compare {
	case OpLT:
		return ln < rn, nil
	case OpLE:
		return ln <= rn, nil
	case OpGT:
		return ln > rn, nil
	case OpGE:
		return ln >= rn, nil
	default:
		return false, fmt.Errorf("datalog: unknown comparison %q", l.Compare)
	}
}
