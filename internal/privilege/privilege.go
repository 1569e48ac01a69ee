// Package privilege models privilege-predicates and their partial order
// (Definitions 1–3 and 6 of the paper).
//
// A privilege-predicate is a Boolean function over consumer credentials;
// this library follows the paper's convention of naming each predicate with
// a nickname ("High-1", "Low-2", ...) and representing the dominance
// relation explicitly as a DAG: p dominates q when every consumer
// satisfying p also satisfies q. "Public" is the distinguished bottom
// predicate dominated by every other predicate.
//
// Object sensitivity is expressed by assigning each graph object its
// lowest() predicate (Definition 3); an object is visible via p exactly
// when p dominates lowest(object) (Definition 1).
package privilege

import (
	"fmt"
	"sort"
)

// Predicate is the nickname of a privilege-predicate.
type Predicate string

// Public is the bottom of every lattice: the predicate satisfied by all
// consumers. Every other predicate must (transitively) dominate it.
const Public Predicate = "Public"

// Lattice is the partially ordered set of privilege-predicates. The zero
// value is not usable; construct with NewLattice, which pre-declares
// Public.
//
// Lattice is immutable after Freeze (or after the first query, which
// freezes implicitly); it may then be shared freely across goroutines.
type Lattice struct {
	declared map[Predicate]bool
	below    map[Predicate][]Predicate // below[p] = predicates p directly dominates
	closure  map[Predicate]map[Predicate]bool
	frozen   bool
}

// NewLattice returns a lattice containing only Public.
func NewLattice() *Lattice {
	return &Lattice{
		declared: map[Predicate]bool{Public: true},
		below:    map[Predicate][]Predicate{},
	}
}

// Declare registers a predicate name. Declaring Public or an existing name
// is a no-op. Predicates with no explicit dominance edge implicitly
// dominate Public only.
func (l *Lattice) Declare(ps ...Predicate) error {
	if l.frozen {
		return fmt.Errorf("privilege: lattice is frozen")
	}
	for _, p := range ps {
		if p == "" {
			return fmt.Errorf("privilege: empty predicate name")
		}
		l.declared[p] = true
	}
	return nil
}

// SetDominates records that p directly dominates q (every consumer
// satisfying p also satisfies q). Both predicates are declared implicitly.
func (l *Lattice) SetDominates(p, q Predicate) error {
	if l.frozen {
		return fmt.Errorf("privilege: lattice is frozen")
	}
	if p == q {
		return fmt.Errorf("privilege: %s cannot explicitly dominate itself", p)
	}
	if p == Public {
		return fmt.Errorf("privilege: Public cannot dominate %s", q)
	}
	if err := l.Declare(p, q); err != nil {
		return err
	}
	for _, existing := range l.below[p] {
		if existing == q {
			return nil
		}
	}
	l.below[p] = append(l.below[p], q)
	return nil
}

// Freeze validates the lattice and computes the dominance closure. After a
// successful Freeze the lattice is immutable. Freeze is idempotent.
//
// Validation enforces: the direct-dominance graph is acyclic (dominance is
// a partial order, so mutual dominance of distinct nicknames is an error),
// and every non-Public predicate transitively dominates Public (the paper
// assumes a Public predicate dominated by all others, §2).
func (l *Lattice) Freeze() error {
	if l.frozen {
		return nil
	}
	// Cycle check via DFS colouring.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make(map[Predicate]int, len(l.declared))
	var visit func(p Predicate) error
	visit = func(p Predicate) error {
		switch colour[p] {
		case grey:
			return fmt.Errorf("privilege: dominance cycle through %s", p)
		case black:
			return nil
		}
		colour[p] = grey
		for _, q := range l.below[p] {
			if err := visit(q); err != nil {
				return err
			}
		}
		colour[p] = black
		return nil
	}
	for p := range l.declared {
		if err := visit(p); err != nil {
			return err
		}
	}

	// Closure: reflexive-transitive reachability over `below`, with Public
	// implicitly below everything.
	l.closure = make(map[Predicate]map[Predicate]bool, len(l.declared))
	for p := range l.declared {
		reach := map[Predicate]bool{p: true, Public: true}
		stack := []Predicate{p}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, q := range l.below[cur] {
				if !reach[q] {
					reach[q] = true
					stack = append(stack, q)
				}
			}
		}
		l.closure[p] = reach
	}
	l.frozen = true
	return nil
}

func (l *Lattice) ensureFrozen() {
	if !l.frozen {
		if err := l.Freeze(); err != nil {
			panic(err) // construction bug: callers building lattices dynamically should call Freeze and handle the error
		}
	}
}

// Known reports whether p was declared in this lattice.
func (l *Lattice) Known(p Predicate) bool { return l.declared[p] }

// Predicates returns all declared predicates in sorted order.
func (l *Lattice) Predicates() []Predicate {
	ps := make([]Predicate, 0, len(l.declared))
	for p := range l.declared {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return ps
}

// Dominates reports whether p dominates q (Definition 2): reflexively and
// transitively, with Public dominated by everything. Unknown predicates
// dominate nothing and are dominated only per the Public rule.
func (l *Lattice) Dominates(p, q Predicate) bool {
	l.ensureFrozen()
	if p == q {
		return true
	}
	if q == Public {
		return l.declared[p]
	}
	reach, ok := l.closure[p]
	return ok && reach[q]
}

// Maximal reduces a predicate set to its maximal elements under dominance:
// the unique minimal antichain that dominates every input. Duplicates are
// removed; the result is sorted.
func (l *Lattice) Maximal(ps []Predicate) []Predicate {
	uniq := map[Predicate]bool{}
	for _, p := range ps {
		uniq[p] = true
	}
	var out []Predicate
	for p := range uniq {
		dominated := false
		for q := range uniq {
			if q != p && l.Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SomeMemberDominates reports whether some member of the set dominates q.
// This is the visibility test against a high-water set (Definition 8 uses
// "for some p dominated by a member of HW").
func (l *Lattice) SomeMemberDominates(ps []Predicate, q Predicate) bool {
	for _, p := range ps {
		if l.Dominates(p, q) {
			return true
		}
	}
	return false
}

// FigureOneLattice builds the privilege ordering of Figure 1b:
//
//	Low-2 dominates Public; High-1 and High-2 each dominate Low-2.
//
// High-1 and High-2 are incomparable.
func FigureOneLattice() *Lattice {
	l := NewLattice()
	mustSet(l, "Low-2", Public)
	mustSet(l, "High-1", "Low-2")
	mustSet(l, "High-2", "Low-2")
	if err := l.Freeze(); err != nil {
		panic(err)
	}
	return l
}

// AppendixLattice builds the privilege ordering of Figure 11b (the
// emergency-response provenance example): Cleared Emergency Responder
// dominates Emergency Responder; National Security dominates Cleared
// Emergency Responder and Medical Provider; all dominate Public.
func AppendixLattice() *Lattice {
	l := NewLattice()
	mustSet(l, "EmergencyResponder", Public)
	mustSet(l, "MedicalProvider", Public)
	mustSet(l, "ClearedEmergencyResponder", "EmergencyResponder")
	mustSet(l, "NationalSecurity", "ClearedEmergencyResponder")
	mustSet(l, "NationalSecurity", "MedicalProvider")
	if err := l.Freeze(); err != nil {
		panic(err)
	}
	return l
}

// TwoLevel builds the minimal lattice used by the §6 evaluation workloads:
// a single "Protected" predicate above Public.
func TwoLevel() *Lattice {
	l := NewLattice()
	mustSet(l, "Protected", Public)
	if err := l.Freeze(); err != nil {
		panic(err)
	}
	return l
}

func mustSet(l *Lattice, p, q Predicate) {
	if err := l.SetDominates(p, q); err != nil {
		panic(err)
	}
}
