// Package core is the library's high-level facade: a builder for
// assembling a sensitive graph with its privilege labels, release policy
// and surrogates, and one-call entry points for generating protected
// accounts and scoring them with the paper's measures.
//
// The subpackages remain the primary API for fine-grained control
// (internal/graph, internal/privilege, internal/policy,
// internal/surrogate, internal/account, internal/measure); core exists so
// that the common path — "protect this graph for that consumer and tell me
// what it cost" — is a few lines.
package core

import (
	"fmt"

	"repro/internal/account"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/policy"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// Mode selects the protection strategy.
type Mode int

const (
	// Surrogate runs the paper's Surrogate Generation Algorithm.
	Surrogate Mode = iota
	// Hide runs the naive all-or-nothing baseline.
	Hide
)

func (m Mode) String() string {
	if m == Hide {
		return "hide"
	}
	return "surrogate"
}

// Builder accumulates a graph, its labeling, policy and surrogates. Errors
// are collected and reported once by Spec, so construction code can chain
// calls without per-call error handling.
type Builder struct {
	graph    *graph.Graph
	labeling *privilege.Labeling
	policy   *policy.Policy
	reg      *surrogate.Registry
	errs     []error
}

// NewBuilder starts a builder over the given privilege lattice.
func NewBuilder(lat *privilege.Lattice) *Builder {
	lb := privilege.NewLabeling(lat)
	return &Builder{
		graph:    graph.New(),
		labeling: lb,
		policy:   policy.New(lat),
		reg:      surrogate.NewRegistry(lb),
	}
}

func (b *Builder) fail(err error) {
	if err != nil {
		b.errs = append(b.errs, err)
	}
}

// Node adds a node with optional features; lowest "" means Public. The
// features are copied, so the caller keeps its map.
func (b *Builder) Node(id graph.NodeID, lowest privilege.Predicate, features graph.Features) *Builder {
	b.graph.AddNode(graph.Node{ID: id, Features: features.Clone()})
	if lowest != "" && lowest != privilege.Public {
		b.fail(b.labeling.SetNode(id, lowest))
	}
	return b
}

// Edge adds a directed edge.
func (b *Builder) Edge(from, to graph.NodeID, label string) *Builder {
	b.fail(b.graph.AddEdge(graph.Edge{From: from, To: to, Label: label}))
	return b
}

// ProtectRole marks all of a node's incidences for consumers that cannot
// see the node: with Surrogate the node's role is hidden but connectivity
// through it is preserved; with Hide its edges are severed.
func (b *Builder) ProtectRole(id graph.NodeID, mode Mode) *Builder {
	below := policy.Surrogate
	if mode == Hide {
		below = policy.Hide
	}
	b.fail(b.policy.SetNodeThreshold(id, b.labeling.LowestNode(id), below))
	return b
}

// ProtectEdge restricts a single edge for consumers below at: Surrogate
// contracts it toward the destination's successors, Hide drops it.
func (b *Builder) ProtectEdge(from, to graph.NodeID, at privilege.Predicate, mode Mode) *Builder {
	b.fail(b.policy.ProtectEdge(graph.EdgeID{From: from, To: to}, at, mode == Surrogate))
	return b
}

// WithSurrogate registers a provider surrogate for a node. Its features
// are copied, as Node's are, so the caller keeps its map.
func (b *Builder) WithSurrogate(forID graph.NodeID, s surrogate.Surrogate) *Builder {
	s.Features = s.Features.Clone()
	b.fail(b.reg.Add(forID, s))
	return b
}

// Spec finalises the builder. It fails if any accumulated step failed.
func (b *Builder) Spec() (*account.Spec, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("core: builder has %d errors, first: %w", len(b.errs), b.errs[0])
	}
	return &account.Spec{
		Graph:      b.graph,
		Labeling:   b.labeling,
		Policy:     b.policy,
		Surrogates: b.reg,
	}, nil
}

// Result is a protected account together with its quality measures.
type Result struct {
	Spec    *account.Spec
	Account *account.Account
	Mode    Mode
	Utility measure.Utility
	// GraphOpacity is the average opacity over every edge of G under the
	// Figure 5 advanced adversary.
	GraphOpacity float64
}

// Protect generates and scores a protected account of spec for a consumer
// with the given privilege-predicate. The account is verified sound
// (Definition 5) before being returned.
func Protect(spec *account.Spec, viewer privilege.Predicate, mode Mode) (*Result, error) {
	return ProtectSet(spec, []privilege.Predicate{viewer}, mode)
}

// ProtectSet is Protect for a consumer holding several incomparable
// privileges at once (a general high-water set, Definition 6).
func ProtectSet(spec *account.Spec, viewers []privilege.Predicate, mode Mode) (*Result, error) {
	var (
		a   *account.Account
		err error
	)
	switch mode {
	case Hide:
		a, err = account.GenerateHideForSet(spec, viewers)
	case Surrogate:
		a, err = account.GenerateForSet(spec, viewers)
	default:
		return nil, fmt.Errorf("core: unknown mode %v", mode)
	}
	if err != nil {
		return nil, err
	}
	if err := account.VerifySound(spec, a); err != nil {
		return nil, fmt.Errorf("core: generated account failed verification: %w", err)
	}
	adv := measure.Figure5()
	return &Result{
		Spec:         spec,
		Account:      a,
		Mode:         mode,
		Utility:      measure.Utilities(spec, a),
		GraphOpacity: measure.GraphOpacity(spec, a, adv),
	}, nil
}

// Comparison holds both strategies' results for one viewer.
type Comparison struct {
	Hide      *Result
	Surrogate *Result
}

// DeltaPathUtility is surrogate minus hide path utility.
func (c *Comparison) DeltaPathUtility() float64 {
	return c.Surrogate.Utility.Path - c.Hide.Utility.Path
}

// DeltaOpacity is surrogate minus hide whole-graph opacity.
func (c *Comparison) DeltaOpacity() float64 {
	return c.Surrogate.GraphOpacity - c.Hide.GraphOpacity
}

// Compare protects the spec both ways for the viewer.
func Compare(spec *account.Spec, viewer privilege.Predicate) (*Comparison, error) {
	h, err := Protect(spec, viewer, Hide)
	if err != nil {
		return nil, err
	}
	s, err := Protect(spec, viewer, Surrogate)
	if err != nil {
		return nil, err
	}
	return &Comparison{Hide: h, Surrogate: s}, nil
}
