// Package datalog implements the deductive store ER-π persists
// interleavings in (paper §5.1: "ER-π manages interleavings in Datalog …
// initially stores the exhaustive set of n! interleavings in Datalog's
// deductive database, using logic queries to perform the applicable
// pruning").
//
// The engine supports stratified Datalog with negation and integer
// comparison builtins, evaluated semi-naively. A parser accepts a
// Soufflé-flavoured text dialect. On top of the engine, Store encodes
// interleavings as il/1 and pos/3 facts with a configurable fact budget —
// the resource that the paper's succeed-or-crash micro-benchmark exhausts,
// sized by FactsPerInterleaving. The engine's record log, not Store, is
// what persists a run's interleavings.
package datalog

import (
	"fmt"
	"strconv"
	"strings"
)

// Term is a constant or a variable. Variables start with an uppercase
// letter or underscore.
type Term struct {
	Var   bool
	Value string
}

// Const builds a constant term.
func Const(v string) Term { return Term{Value: v} }

// Var builds a variable term.
func Var(name string) Term { return Term{Var: true, Value: name} }

// String renders the term.
func (t Term) String() string {
	if t.Var {
		return t.Value
	}
	if _, err := strconv.Atoi(t.Value); err == nil {
		return t.Value
	}
	return strconv.Quote(t.Value)
}

// Atom is a predicate applied to terms.
type Atom struct {
	Pred  string
	Terms []Term
}

// String renders "pred(t1, t2)".
func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// CompareOp is a builtin integer comparison.
type CompareOp string

// Builtin comparison operators.
const (
	OpLT CompareOp = "<"
	OpLE CompareOp = "<="
	OpGT CompareOp = ">"
	OpGE CompareOp = ">="
	OpEQ CompareOp = "="
	OpNE CompareOp = "!="
)

// Literal is one body element: a (possibly negated) atom, or a builtin
// comparison between two terms.
type Literal struct {
	Atom    Atom
	Negated bool
	// Builtin comparison: when Compare != "", Atom is unused and Left/Right
	// hold the operands.
	Compare     CompareOp
	Left, Right Term
}

// String renders the literal.
func (l Literal) String() string {
	if l.Compare != "" {
		return l.Left.String() + " " + string(l.Compare) + " " + l.Right.String()
	}
	if l.Negated {
		return "!" + l.Atom.String()
	}
	return l.Atom.String()
}

// Rule is "Head :- Body.". A rule with an empty body is a fact.
type Rule struct {
	Head Atom
	Body []Literal
}

// String renders the rule in source form.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Fact is a ground tuple of a predicate.
type Fact struct {
	Pred string
	Args []string
}

// String renders the fact in source form.
func (f Fact) String() string {
	terms := make([]Term, len(f.Args))
	for i, a := range f.Args {
		terms[i] = Const(a)
	}
	return Atom{Pred: f.Pred, Terms: terms}.String() + "."
}

func (f Fact) key() string {
	return strings.Join(f.Args, "\x00")
}

// validate checks rule safety: every head variable and every variable in a
// negated or builtin literal must be bound by a positive body atom.
func (r Rule) validate() error {
	bound := make(map[string]bool)
	for _, l := range r.Body {
		if l.Compare == "" && !l.Negated {
			for _, t := range l.Atom.Terms {
				if t.Var {
					bound[t.Value] = true
				}
			}
		}
	}
	check := func(t Term, where string) error {
		if t.Var && !bound[t.Value] {
			return fmt.Errorf("datalog: unsafe rule %s: variable %s in %s not bound by a positive atom", r, t.Value, where)
		}
		return nil
	}
	for _, t := range r.Head.Terms {
		if err := check(t, "head"); err != nil {
			return err
		}
	}
	for _, l := range r.Body {
		if l.Compare != "" {
			if err := check(l.Left, "builtin"); err != nil {
				return err
			}
			if err := check(l.Right, "builtin"); err != nil {
				return err
			}
			continue
		}
		if l.Negated {
			for _, t := range l.Atom.Terms {
				if err := check(t, "negated atom"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
