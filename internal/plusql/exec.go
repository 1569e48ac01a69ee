package plusql

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/graph"
)

// ExecStats counts the work one query execution performed; the planner
// tests assert planned plans examine strictly fewer candidates than naive
// scan-and-filter.
type ExecStats struct {
	// Examined counts candidate bindings pulled through the pipeline.
	Examined int `json:"examined"`
	// Rejected counts candidates a pushed or checked predicate killed.
	Rejected int `json:"rejected"`
	// Rows counts distinct emitted result rows.
	Rows int `json:"rows"`
}

// Binding is one bound variable of a result row, described with the
// viewer-releasable node attributes.
type Binding struct {
	Var       string `json:"var"`
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	Kind      string `json:"kind,omitempty"`
	Surrogate bool   `json:"surrogate,omitempty"`
}

// ResultSet is the answer to one query.
type ResultSet struct {
	Vars []string    `json:"vars"`
	Rows [][]Binding `json:"rows"`
	// Plan is the executed plan's Explain rendering.
	Plan  string    `json:"plan,omitempty"`
	Stats ExecStats `json:"stats"`
	// Phases is the per-phase timing decomposition, attached by the
	// engine (nil on bare run() results).
	Phases *PhaseTimings `json:"phases,omitempty"`
}

const unboundID = graph.NodeID("")

// exec bundles everything one query evaluation needs: the compiled plan,
// the protected view, the mutable binding array and the work counters.
type exec struct {
	p       *Plan
	v       *View
	binding []graph.NodeID
	stats   ExecStats
}

// term resolves a node-position term: constants to themselves, variables
// to their slot's current binding (unboundID when unbound).
func (ex *exec) term(t Term) graph.NodeID {
	if !t.IsVar {
		return graph.NodeID(t.Text)
	}
	return ex.binding[ex.p.slotOf[t.Text]]
}

// ctxCheckStride is how many backtracking-loop iterations run between
// context checks: frequent enough that a cancelled query stops in
// microseconds, rare enough that the check never shows in profiles.
const ctxCheckStride = 1 << 12

// run evaluates a compiled plan against a view with a pull-based
// backtracking join: each step holds a cursor of candidate extensions
// computed from the binding prefix above it, and rows are produced one at
// a time so limits short-circuit all upstream enumeration. The context is
// checked every ctxCheckStride iterations.
func run(ctx context.Context, p *Plan, v *View, maxRows int) (*ResultSet, error) {
	rs := &ResultSet{Vars: make([]string, len(p.Proj))}
	for i, s := range p.Proj {
		rs.Vars[i] = p.Vars[s]
	}
	limit := p.Limit
	if maxRows > 0 && (limit == 0 || maxRows < limit) {
		limit = maxRows
	}

	ex := &exec{p: p, v: v, binding: make([]graph.NodeID, len(p.Vars))}
	seen := map[string]bool{}

	// emit projects the current full binding into a row (set semantics).
	emit := func() {
		row := make([]Binding, len(p.Proj))
		var key strings.Builder
		for i, slot := range p.Proj {
			id := ex.binding[slot]
			key.WriteString(string(id))
			key.WriteByte(0)
			feats := v.Features(id)
			row[i] = Binding{
				Var:       p.Vars[slot],
				ID:        string(id),
				Name:      feats["name"],
				Kind:      feats["kind"],
				Surrogate: v.IsSurrogate(id),
			}
		}
		if seen[key.String()] {
			return
		}
		seen[key.String()] = true
		rs.Rows = append(rs.Rows, row)
		ex.stats.Rows++
	}

	if len(p.Steps) > 0 {
		cursors := make([]*cursor, len(p.Steps))
		depth := 0
		c, err := ex.open(&p.Steps[0])
		if err != nil {
			return nil, err
		}
		cursors[0] = c
		var steps uint
		for depth >= 0 {
			if limit > 0 && ex.stats.Rows >= limit {
				break
			}
			if steps++; steps%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("plusql: %w", err)
				}
			}
			if !cursors[depth].next() {
				cursors[depth].unbind()
				depth--
				continue
			}
			if depth == len(p.Steps)-1 {
				emit()
				continue
			}
			depth++
			c, err := ex.open(&p.Steps[depth])
			if err != nil {
				return nil, err
			}
			cursors[depth] = c
		}
	}
	rs.Stats = ex.stats
	return rs, nil
}

// cursor streams the candidate extensions of one step under the binding
// prefix established by earlier steps.
type cursor struct {
	ex   *exec
	step *Step

	ids []graph.NodeID // single-slot candidates
	i   int

	// Pair scans stream lazily: outer walks the node list, inner holds
	// the current outer node's partners, so a satisfied limit stops the
	// enumeration (and the closure memoisation) early.
	outer    []graph.NodeID
	oi       int
	cur      graph.NodeID
	inner    []graph.NodeID
	ii       int
	label    string
	hasLabel bool

	checked bool // StepCheck consumed
	passed  bool
}

// open computes the candidate stream of a step under the current binding.
func (ex *exec) open(s *Step) (*cursor, error) {
	c := &cursor{ex: ex, step: s}
	a := s.Atom
	switch s.Kind {
	case StepCheck:
		c.passed = ex.check(a)
		return c, nil

	case StepScan:
		switch {
		case s.ScanKind != "":
			c.ids = ex.v.NodesByKind(s.ScanKind)
		case s.ScanName != "":
			c.ids = ex.v.NodesByName(s.ScanName)
		case s.ScanAttrKey != "":
			c.ids = ex.v.NodesByAttr(s.ScanAttrKey, s.ScanAttrVal)
		default:
			c.ids = ex.v.Nodes()
		}
		return c, nil

	case StepExpand:
		// One node argument is the unbound variable (slot s.Slot); the
		// other resolves to a node id.
		boundArg := -1
		for i, t := range a.Args {
			if !a.isNodePos(i) {
				continue
			}
			if t.IsVar && ex.p.slotOf[t.Text] == s.Slot && ex.binding[s.Slot] == unboundID {
				continue
			}
			boundArg = i
		}
		if boundArg < 0 {
			return nil, fmt.Errorf("plusql: internal: expand step %s has no bound side", a)
		}
		from := ex.term(a.Args[boundArg])
		if !ex.v.Has(from) {
			// Unknown or policy-hidden anchor: no bindings.
			return c, nil
		}
		dir := expandDirection(a, boundArg)
		if closurePred(a.Pred) {
			c.ids = ex.v.Reach(from, dir)
			return c, nil
		}
		var label string
		hasLabel := false
		if a.Pred == PredEdge && len(a.Args) == 3 {
			label, hasLabel = a.Args[2].Text, true
		}
		adj := ex.v.Out(from)
		if dir == graph.Backward {
			adj = ex.v.In(from)
		}
		for _, nb := range adj {
			if hasLabel && nb.Label != label {
				continue
			}
			c.ids = append(c.ids, nb.To)
		}
		return c, nil

	case StepScanPair:
		// Both sides unbound: stream (arg0, arg1) pairs node by node —
		// direct atoms walk each node's out-edges, closures its
		// descendant set — so nothing is materialised up front.
		if a.Pred == PredEdge && len(a.Args) == 3 {
			c.label, c.hasLabel = a.Args[2].Text, true
		}
		c.outer = ex.v.Nodes()
		return c, nil
	}
	return nil, fmt.Errorf("plusql: internal: unknown step kind %v", s.Kind)
}

// orientPair maps a traversal (from -> to along dataflow) onto the atom's
// argument order: descendant atoms list the downstream node first.
func orientPair(a Atom, from, to graph.NodeID) [2]graph.NodeID {
	if a.Pred == PredDescendant || a.Pred == PredDescendantT {
		return [2]graph.NodeID{to, from}
	}
	return [2]graph.NodeID{from, to}
}

// next advances the cursor, installing the next candidate into the
// binding. Pushed predicates filter candidates here, before the binding
// ever extends downstream.
func (c *cursor) next() bool {
	s := c.step
	ex := c.ex
	switch s.Kind {
	case StepCheck:
		if c.checked {
			return false
		}
		c.checked = true
		ex.stats.Examined++
		if !c.passed {
			ex.stats.Rejected++
			return false
		}
		return true

	case StepScanPair:
		for {
			for c.ii < len(c.inner) {
				to := c.inner[c.ii]
				c.ii++
				ex.stats.Examined++
				pr := orientPair(s.Atom, c.cur, to)
				// edge(X, X)-style atoms reuse one slot for both sides
				// and only match when the pair agrees.
				if s.Slot == s.Slot2 && pr[0] != pr[1] {
					ex.stats.Rejected++
					continue
				}
				ex.binding[s.Slot] = pr[0]
				ex.binding[s.Slot2] = pr[1]
				if c.applyPushed() {
					return true
				}
				ex.stats.Rejected++
			}
			if c.oi >= len(c.outer) {
				break
			}
			c.cur = c.outer[c.oi]
			c.oi++
			c.ii = 0
			if closurePred(s.Atom.Pred) {
				c.inner = ex.v.Reach(c.cur, graph.Forward)
				continue
			}
			c.inner = c.inner[:0]
			for _, nb := range ex.v.Out(c.cur) {
				if c.hasLabel && nb.Label != c.label {
					continue
				}
				c.inner = append(c.inner, nb.To)
			}
		}
		ex.binding[s.Slot] = unboundID
		ex.binding[s.Slot2] = unboundID
		return false

	default: // StepScan, StepExpand
		for c.i < len(c.ids) {
			id := c.ids[c.i]
			c.i++
			ex.stats.Examined++
			ex.binding[s.Slot] = id
			if c.applyPushed() {
				return true
			}
			ex.stats.Rejected++
		}
		ex.binding[s.Slot] = unboundID
		return false
	}
}

// applyPushed evaluates the step's pushed filters on a fresh candidate.
func (c *cursor) applyPushed() bool {
	for _, a := range c.step.Pushed {
		if !c.ex.check(a) {
			return false
		}
	}
	return true
}

// unbind clears the step's slots when its cursor is exhausted.
func (c *cursor) unbind() {
	if c.step.Slot >= 0 {
		c.ex.binding[c.step.Slot] = unboundID
	}
	if c.step.Slot2 >= 0 {
		c.ex.binding[c.step.Slot2] = unboundID
	}
}

// check evaluates an atom whose node arguments are all bound or constant.
func (ex *exec) check(a Atom) bool {
	v := ex.v
	switch a.Pred {
	case PredNode:
		return v.Has(ex.term(a.Args[0]))
	case PredSurrogate:
		return v.IsSurrogate(ex.term(a.Args[0]))
	case PredKind:
		return v.Features(ex.term(a.Args[0]))["kind"] == a.Args[1].Text
	case PredName:
		return v.Features(ex.term(a.Args[0]))["name"] == a.Args[1].Text
	case PredAttr:
		return v.Features(ex.term(a.Args[0]))[a.Args[1].Text] == a.Args[2].Text
	case PredEdge, PredAncestor, PredDescendant:
		from, to := ex.term(a.Args[0]), ex.term(a.Args[1])
		if a.Pred == PredDescendant {
			from, to = to, from
		}
		label, ok := v.HasEdge(from, to)
		if !ok {
			return false
		}
		if a.Pred == PredEdge && len(a.Args) == 3 {
			return label == a.Args[2].Text
		}
		return true
	case PredAncestorT, PredDescendantT:
		fromArg, toArg := a.Args[0], a.Args[1]
		if a.Pred == PredDescendantT {
			fromArg, toArg = toArg, fromArg
		}
		from, to := ex.term(fromArg), ex.term(toArg)
		if !v.Has(from) || !v.Has(to) {
			return false
		}
		// A constant end is the same for every candidate the variable end
		// takes: search its one memoised closure, not a closure per
		// candidate.
		if fromArg.IsVar && !toArg.IsVar {
			return contains(v.Reach(to, graph.Backward), from)
		}
		return contains(v.Reach(from, graph.Forward), to)
	}
	return false
}
