package account

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/policy"
	"repro/internal/privilege"
	"repro/internal/surrogate"
)

// incSpec builds an empty spec over a three-level Secret > Protected >
// Public lattice.
func incSpec(t *testing.T) *Spec {
	t.Helper()
	lat := privilege.NewLattice()
	if err := lat.Declare("Secret", "Protected"); err != nil {
		t.Fatal(err)
	}
	if err := lat.SetDominates("Secret", "Protected"); err != nil {
		t.Fatal(err)
	}
	if err := lat.SetDominates("Protected", privilege.Public); err != nil {
		t.Fatal(err)
	}
	if err := lat.Freeze(); err != nil {
		t.Fatal(err)
	}
	lb := privilege.NewLabeling(lat)
	return &Spec{
		Graph:      graph.New(),
		Labeling:   lb,
		Policy:     policy.New(lat),
		Surrogates: surrogate.NewRegistry(lb),
	}
}

// harness drives chained incremental maintenance against from-scratch
// generation over an evolving spec.
type harness struct {
	t      *testing.T
	spec   *Spec
	viewer privilege.Predicate
	acct   *Account // incrementally maintained
	hide   *Account // incrementally maintained hide account

	pending    Delta
	pre        *PreState
	rebuilds   int
	increments int
}

func newHarness(t *testing.T, viewer privilege.Predicate) *harness {
	h := &harness{t: t, spec: incSpec(t), viewer: viewer}
	var err error
	h.acct, err = Generate(h.spec, viewer)
	if err != nil {
		t.Fatal(err)
	}
	h.hide, err = GenerateHide(h.spec, viewer)
	if err != nil {
		t.Fatal(err)
	}
	h.pre = &PreState{nodes: map[graph.NodeID]nodeProtection{}}
	return h
}

func (h *harness) capture(id graph.NodeID) {
	if _, ok := h.pre.nodes[id]; ok {
		return
	}
	np := nodeProtection{lowest: h.spec.Labeling.LowestNode(id)}
	np.thrAt, np.thrBelow, np.hasThr = h.spec.Policy.NodeThreshold(id)
	h.pre.nodes[id] = np
}

// addNode stores (or replaces) a node with the given protection.
func (h *harness) addNode(id graph.NodeID, lowest privilege.Predicate, protect policy.Marking, feats graph.Features) {
	t, s := h.t, h.spec
	if s.Graph.HasNode(id) {
		h.capture(id)
		h.pending.UpdatedNodes = append(h.pending.UpdatedNodes, id)
	} else {
		h.pending.NewNodes = append(h.pending.NewNodes, id)
	}
	s.Graph.AddNode(graph.Node{ID: id, Features: feats})
	if lowest != "" && lowest != privilege.Public {
		if err := s.Labeling.SetNode(id, lowest); err != nil {
			t.Fatal(err)
		}
	} else {
		s.Labeling.ClearNode(id)
	}
	if protect != policy.Visible {
		at := lowest
		if at == "" {
			at = privilege.Public
		}
		if err := s.Policy.SetNodeThreshold(id, at, protect); err != nil {
			t.Fatal(err)
		}
	} else {
		s.Policy.ClearNodeThreshold(id)
	}
}

func (h *harness) addEdge(from, to graph.NodeID) {
	if err := h.spec.Graph.AddEdge(graph.Edge{From: from, To: to, Label: "l"}); err != nil {
		h.t.Fatal(err)
	}
	h.pending.NewEdges = append(h.pending.NewEdges, graph.EdgeID{From: from, To: to})
}

func (h *harness) addSurrogate(forID, id graph.NodeID, lowest privilege.Predicate, score float64) {
	err := h.spec.Surrogates.Add(forID, surrogate.Surrogate{
		ID: id, Features: graph.Features{"name": "s-" + string(id)}, Lowest: lowest, InfoScore: score,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.pending.SurrogateFor = append(h.pending.SurrogateFor, forID)
}

// step maintains both accounts with the pending delta and checks parity
// against from-scratch generation.
func (h *harness) step(wantRebuild bool) MaintainStats {
	t := h.t
	t.Helper()
	d, pre := h.pending, h.pre
	h.pending, h.pre = Delta{}, &PreState{nodes: map[graph.NodeID]nodeProtection{}}

	got, st, err := Maintain(h.acct, h.spec, d, pre)
	if err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	if st.Rebuilt != wantRebuild {
		t.Fatalf("Maintain rebuilt = %v (%q), want %v", st.Rebuilt, st.Reason, wantRebuild)
	}
	if (got == h.acct) == st.Rebuilt || (st.Cause != "") != st.Rebuilt {
		t.Fatalf("Maintain: in place = %v, cause %q, rebuilt = %v: an incremental pass patches its input, a rebuild returns a fresh account and names its cause",
			got == h.acct, st.Cause, st.Rebuilt)
	}
	want, err := Generate(h.spec, h.viewer)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAccount(t, "surrogate", got, want)
	if err := VerifySound(h.spec, got); err != nil {
		t.Fatalf("VerifySound on maintained account: %v", err)
	}
	if err := VerifyMaximal(h.spec, got); err != nil {
		t.Fatalf("VerifyMaximal on maintained account: %v", err)
	}
	h.acct = got
	if st.Rebuilt {
		h.rebuilds++
	} else {
		h.increments++
	}

	gotHide, hst, err := MaintainHide(h.hide, h.spec, d)
	if err != nil {
		t.Fatalf("MaintainHide: %v", err)
	}
	if hst.Rebuilt {
		t.Fatal("MaintainHide should never rebuild")
	}
	wantHide, err := GenerateHide(h.spec, h.viewer)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAccount(t, "hide", gotHide, wantHide)
	h.hide = gotHide
	return st
}

func assertSameAccount(t *testing.T, label string, got, want *Account) {
	t.Helper()
	if !got.Graph.Equal(want.Graph) {
		t.Fatalf("%s: maintained graph differs from scratch generation:\n got nodes %v edges %v\nwant nodes %v edges %v",
			label, got.Graph.Nodes(), got.Graph.Edges(), want.Graph.Nodes(), want.Graph.Edges())
	}
	if fmt.Sprint(mapPairs(got.ToOriginal)) != fmt.Sprint(mapPairs(want.ToOriginal)) {
		t.Fatalf("%s: ToOriginal differs", label)
	}
	if fmt.Sprint(mapPairs(got.FromOriginal)) != fmt.Sprint(mapPairs(want.FromOriginal)) {
		t.Fatalf("%s: FromOriginal differs", label)
	}
	if len(got.InfoScore) != len(want.InfoScore) {
		t.Fatalf("%s: InfoScore size %d != %d", label, len(got.InfoScore), len(want.InfoScore))
	}
	for k, v := range want.InfoScore {
		if got.InfoScore[k] != v {
			t.Fatalf("%s: InfoScore[%s] = %v, want %v", label, k, got.InfoScore[k], v)
		}
	}
	if len(got.SurrogateNodes) != len(want.SurrogateNodes) {
		t.Fatalf("%s: SurrogateNodes size %d != %d", label, len(got.SurrogateNodes), len(want.SurrogateNodes))
	}
	for k := range want.SurrogateNodes {
		if _, ok := got.SurrogateNodes[k]; !ok {
			t.Fatalf("%s: missing surrogate node %s", label, k)
		}
	}
	if len(got.SurrogateEdges) != len(want.SurrogateEdges) {
		t.Fatalf("%s: SurrogateEdges size %d != %d:\n got %v\nwant %v",
			label, len(got.SurrogateEdges), len(want.SurrogateEdges), got.SurrogateEdges, want.SurrogateEdges)
	}
	for k := range want.SurrogateEdges {
		if !got.SurrogateEdges[k] {
			t.Fatalf("%s: missing surrogate edge %s", label, k)
		}
	}
}

func mapPairs(m map[graph.NodeID]graph.NodeID) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, string(k)+"="+string(v))
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestMaintainAdditiveChain exercises the incremental fast path: additive
// writes (new nodes, edges through protected regions, benign feature
// updates, surrogates bundled with their nodes) patch the account without
// regeneration, and the result matches a from-scratch build exactly.
func TestMaintainAdditiveChain(t *testing.T) {
	h := newHarness(t, privilege.Public)

	// Seed: a public chain through a protected-surrogate middle.
	h.addNode("a", "", policy.Visible, graph.Features{"name": "a", "kind": "data"})
	h.addNode("m", "Protected", policy.Surrogate, graph.Features{"name": "m", "kind": "invocation"})
	h.addSurrogate("m", "m'", privilege.Public, 0.5)
	h.addNode("b", "", policy.Visible, graph.Features{"name": "b", "kind": "data"})
	h.addEdge("a", "m")
	h.addEdge("m", "b")
	h.step(false)
	if !h.acct.Graph.HasNode("m'") {
		t.Fatal("surrogate m' not selected")
	}

	// Grow a new branch into the protected region: the new edge's walks
	// must follow the chain through m and connect c to b.
	h.addNode("c", "", policy.Visible, graph.Features{"name": "c", "kind": "data"})
	h.addEdge("c", "m")
	st := h.step(false)
	if st.Walked == 0 || st.Pairs == 0 {
		t.Fatalf("walked %d, pairs %d after edge into protected chain, want both > 0", st.Walked, st.Pairs)
	}

	// Benign feature update of a visible node.
	h.addNode("a", "", policy.Visible, graph.Features{"name": "a v2", "kind": "data"})
	h.step(false)

	// A hidden node (no surrogate) bundled with edges in one delta.
	h.addNode("h", "Secret", policy.Hide, graph.Features{"name": "h", "kind": "data"})
	h.addEdge("b", "h")
	h.step(false)

	// A brand-new protected node arriving WITH its surrogate in the same
	// delta stays incremental.
	h.addNode("p", "Protected", policy.Surrogate, graph.Features{"name": "p", "kind": "invocation"})
	h.addSurrogate("p", "p'", privilege.Public, 0.3)
	h.addEdge("b", "p")
	h.addNode("q", "", policy.Visible, graph.Features{"name": "q", "kind": "data"})
	h.addEdge("p", "q")
	h.step(false)

	// Pure growth in public territory.
	for i := 0; i < 5; i++ {
		id := graph.NodeID(fmt.Sprintf("x%d", i))
		h.addNode(id, "", policy.Visible, graph.Features{"name": string(id), "kind": "data"})
		h.addEdge("q", id)
		h.step(false)
	}
	if h.increments == 0 || h.rebuilds != 0 {
		t.Fatalf("increments/rebuilds = %d/%d, want all-incremental", h.increments, h.rebuilds)
	}
}

// TestMaintainHazardsRebuild exercises the escape hatches: protection
// changes and late surrogates cannot be localised and regenerate, still
// landing on the exact scratch account.
func TestMaintainHazardsRebuild(t *testing.T) {
	h := newHarness(t, privilege.Public)
	h.addNode("a", "", policy.Visible, graph.Features{"name": "a", "kind": "data"})
	h.addNode("m", "Protected", policy.Surrogate, graph.Features{"name": "m", "kind": "invocation"})
	h.addNode("b", "", policy.Visible, graph.Features{"name": "b", "kind": "data"})
	h.addEdge("a", "m")
	h.addEdge("m", "b")
	h.step(false)

	// A surrogate arriving AFTER its hidden node was already incorporated
	// flips presence: rebuild.
	h.addSurrogate("m", "m'", privilege.Public, 0.5)
	h.step(true)

	// Reclassifying a visible node to Protected: rebuild.
	h.addNode("a", "Protected", policy.Surrogate, graph.Features{"name": "a", "kind": "data"})
	h.step(true)

	// Clearing protection again: rebuild.
	h.addNode("a", "", policy.Visible, graph.Features{"name": "a", "kind": "data"})
	h.step(true)

	// And afterwards additive writes are incremental again.
	h.addNode("c", "", policy.Visible, graph.Features{"name": "c", "kind": "data"})
	h.addEdge("c", "a")
	h.step(false)
}

// TestMaintainRandomParity drives randomized evolution: each step applies
// a random batch of additive and hazardous mutations, maintains
// incrementally, and requires exact parity with scratch generation for
// both generators and both a Public and a Protected viewer.
func TestMaintainRandomParity(t *testing.T) {
	for _, viewer := range []privilege.Predicate{privilege.Public, "Protected"} {
		for seed := int64(1); seed <= 5; seed++ {
			viewer, seed := viewer, seed
			t.Run(fmt.Sprintf("%s/seed%d", viewer, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				h := newHarness(t, viewer)
				var ids []graph.NodeID
				lowests := []privilege.Predicate{"", "", "", "Protected", "Secret"}
				marks := []policy.Marking{policy.Visible, policy.Visible, policy.Surrogate, policy.Hide}
				nextID := 0
				expectRebuild := false

				for step := 0; step < 60; step++ {
					ops := 1 + rng.Intn(4)
					for i := 0; i < ops; i++ {
						switch k := rng.Intn(10); {
						case k < 4 || len(ids) < 2: // new node (maybe protected, maybe with surrogate)
							id := graph.NodeID(fmt.Sprintf("n%d", nextID))
							nextID++
							lw := lowests[rng.Intn(len(lowests))]
							mk := policy.Visible
							if lw != "" {
								mk = marks[rng.Intn(len(marks))]
							}
							h.addNode(id, lw, mk, graph.Features{"name": string(id), "kind": []string{"data", "invocation"}[rng.Intn(2)]})
							if lw != "" && rng.Intn(2) == 0 {
								h.addSurrogate(id, id+"'", privilege.Public, 0.5)
							}
							if len(ids) > 0 && rng.Intn(3) > 0 {
								from := ids[rng.Intn(len(ids))]
								if !h.spec.Graph.HasEdge(from, id) {
									h.addEdge(from, id)
								}
							}
							ids = append(ids, id)
						case k < 7: // new edge between existing nodes
							from := ids[rng.Intn(len(ids))]
							to := ids[rng.Intn(len(ids))]
							if from != to && !h.spec.Graph.HasEdge(from, to) && !h.spec.Graph.HasEdge(to, from) {
								h.addEdge(from, to)
							}
						case k < 9: // benign feature update
							id := ids[rng.Intn(len(ids))]
							lw := h.spec.Labeling.LowestNode(id)
							if lw == privilege.Public {
								lw = ""
							}
							at, below, hasThr := h.spec.Policy.NodeThreshold(id)
							mk := policy.Visible
							if hasThr {
								mk = below
								_ = at
							}
							n, _ := h.spec.Graph.NodeByID(id)
							feats := n.Features.Clone()
							feats["rev"] = fmt.Sprint(step)
							h.addNode(id, lw, mk, feats)
						default: // hazardous reclassification
							id := ids[rng.Intn(len(ids))]
							lw := lowests[rng.Intn(len(lowests))]
							mk := policy.Visible
							if lw != "" {
								mk = marks[rng.Intn(len(marks))]
							}
							old := h.spec.Labeling.LowestNode(id)
							n, _ := h.spec.Graph.NodeByID(id)
							h.addNode(id, lw, mk, n.Features.Clone())
							newLw := lw
							if newLw == "" {
								newLw = privilege.Public
							}
							_, _, hadThr := h.pre.nodes[id].thrAt, h.pre.nodes[id].thrBelow, h.pre.nodes[id].hasThr
							if old != newLw || hadThr != (mk != policy.Visible) || mk != policy.Visible {
								// May or may not be an actual change; Maintain
								// decides. Don't predict; just allow either.
								expectRebuild = true
							}
						}
					}
					d, pre := h.pending, h.pre
					h.pending, h.pre = Delta{}, &PreState{nodes: map[graph.NodeID]nodeProtection{}}

					got, _, err := Maintain(h.acct, h.spec, d, pre)
					if err != nil {
						t.Fatalf("step %d: Maintain: %v", step, err)
					}
					want, err := Generate(h.spec, viewer)
					if err != nil {
						t.Fatal(err)
					}
					assertSameAccount(t, fmt.Sprintf("step %d surrogate", step), got, want)
					if err := VerifySound(h.spec, got); err != nil {
						t.Fatalf("step %d: VerifySound: %v", step, err)
					}
					h.acct = got

					gotHide, _, err := MaintainHide(h.hide, h.spec, d)
					if err != nil {
						t.Fatalf("step %d: MaintainHide: %v", step, err)
					}
					wantHide, err := GenerateHide(h.spec, viewer)
					if err != nil {
						t.Fatal(err)
					}
					assertSameAccount(t, fmt.Sprintf("step %d hide", step), gotHide, wantHide)
					h.hide = gotHide
				}
				_ = expectRebuild
			})
		}
	}
}

// markIncidence restricts one incidence of an edge added in the pending
// delta: Visible from at upwards, below beneath it.
func (h *harness) markIncidence(n graph.NodeID, e graph.EdgeID, at privilege.Predicate, below policy.Marking) {
	if err := h.spec.Policy.SetIncidenceThreshold(n, e, at, below); err != nil {
		h.t.Fatal(err)
	}
}

// TestMaintainVetoBetweenDistantAnchors: a restricted direct edge landing
// between an anchor pair vetoes it (Definition 8 condition 2) even when the
// contract edge that made the pair touches neither anchor — u and v below
// are joined through z->y, and nothing about the new edge u->v is incident
// to z or y.
func TestMaintainVetoBetweenDistantAnchors(t *testing.T) {
	h := newHarness(t, privilege.Public)
	for _, id := range []graph.NodeID{"u", "z", "y", "v"} {
		h.addNode(id, "", policy.Visible, graph.Features{"name": string(id), "kind": "data"})
	}
	h.addEdge("u", "z")
	h.addEdge("z", "y")
	h.addEdge("y", "v")
	zy := graph.EdgeID{From: "z", To: "y"}
	h.markIncidence("z", zy, "Protected", policy.Surrogate)
	h.markIncidence("y", zy, "Protected", policy.Surrogate)
	h.step(false)
	if !h.acct.SurrogateEdges[graph.EdgeID{From: "u", To: "v"}] {
		t.Fatalf("u->v not interposed: edges %v", h.acct.Graph.Edges())
	}

	h.addEdge("u", "v")
	h.markIncidence("v", graph.EdgeID{From: "u", To: "v"}, "Protected", policy.Surrogate)
	if st := h.step(true); st.Cause != CauseSweepVeto {
		t.Fatalf("cause %q, want %q", st.Cause, CauseSweepVeto)
	}
	if h.acct.Graph.HasEdge("u", "v") {
		t.Fatalf("maintained account still advertises u->v: edges %v", h.acct.Graph.Edges())
	}
}

// TestMaintainRandomIncidenceParity is the corpus that reaches the anchor
// walks: incidence-level marks on either side of an edge make an edge's
// back, forward and through sets disagree, new nodes are wired in both
// directions (cycles happen), and most nodes are restricted. Every step is
// effect-additive, so a pass rebuilds only for a veto; maintained must
// equal scratch at every step, and an incremental pass must never stand
// where scratch needed the completion sweep. VerifyMaximal is not asserted:
// under these marks scratch generation itself is not always maximal
// (ROADMAP item 2, "found on the way").
func TestMaintainRandomIncidenceParity(t *testing.T) {
	var incremental, rebuilt int
	for _, viewer := range []privilege.Predicate{privilege.Public, "Protected"} {
		// Seed 1063 is one the parent of this corpus failed: as Public, at
		// step 47, it kept a surrogate edge a new restricted edge vetoed.
		for _, seed := range append(seeds(1, 19), 1063) {
			rng := rand.New(rand.NewSource(seed))
			h := newHarness(t, viewer)
			label := fmt.Sprintf("%s/seed%d", viewer, seed)
			restricted := []privilege.Predicate{"Protected", "Secret"}
			below := []policy.Marking{policy.Surrogate, policy.Surrogate, policy.Surrogate, policy.Hide}
			var ids []graph.NodeID
			wire := func(from, to graph.NodeID) {
				if from == to || h.spec.Graph.HasEdge(from, to) {
					return
				}
				h.addEdge(from, to)
				e := graph.EdgeID{From: from, To: to}
				for _, n := range []graph.NodeID{from, to} {
					if rng.Intn(10) == 0 {
						h.markIncidence(n, e, restricted[rng.Intn(2)], below[rng.Intn(4)])
					}
				}
			}
			for step := 0; step < 80; step++ {
				switch k := rng.Intn(10); {
				case k < 6 || len(ids) < 2: // new node, wired 1–2 edges either way
					id := graph.NodeID(fmt.Sprintf("n%d", len(ids)))
					lw, mk := privilege.Predicate(""), policy.Visible
					if rng.Intn(5) < 3 {
						lw, mk = restricted[rng.Intn(2)], below[rng.Intn(4)]
					}
					h.addNode(id, lw, mk, graph.Features{"name": string(id), "kind": "data"})
					if lw != "" && rng.Intn(3) < 2 {
						h.addSurrogate(id, id+"'", privilege.Public, 0.5)
					}
					for n := 1 + rng.Intn(2); n > 0 && len(ids) > 0; n-- {
						other := ids[rng.Intn(len(ids))]
						if rng.Intn(2) == 0 {
							wire(other, id)
						} else {
							wire(id, other)
						}
					}
					ids = append(ids, id)
				case k < 8: // new edge between existing nodes
					wire(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
				case k < 9: // direct edge onto an interposed anchor pair
					var pairs []graph.EdgeID
					for e := range h.acct.SurrogateEdges {
						pairs = append(pairs, e)
					}
					sort.Slice(pairs, func(i, j int) bool { return pairs[i].String() < pairs[j].String() })
					if len(pairs) > 0 {
						e := pairs[rng.Intn(len(pairs))]
						wire(h.acct.ToOriginal[e.From], h.acct.ToOriginal[e.To])
					}
				default: // benign feature update
					id := ids[rng.Intn(len(ids))]
					h.capture(id)
					h.pending.UpdatedNodes = append(h.pending.UpdatedNodes, id)
					n, _ := h.spec.Graph.NodeByID(id)
					n.Features = n.Features.Clone()
					n.Features["rev"] = fmt.Sprint(step)
					h.spec.Graph.AddNode(n)
				}
				d, pre := h.pending, h.pre
				h.pending, h.pre = Delta{}, &PreState{nodes: map[graph.NodeID]nodeProtection{}}
				got, st, err := Maintain(h.acct, h.spec, d, pre)
				if err != nil {
					t.Fatalf("%s step %d: Maintain: %v", label, step, err)
				}
				want, err := Generate(h.spec, viewer)
				if err != nil {
					t.Fatal(err)
				}
				assertSameAccount(t, fmt.Sprintf("%s step %d", label, step), got, want)
				if err := VerifySound(h.spec, got); err != nil {
					t.Fatalf("%s step %d: VerifySound: %v", label, step, err)
				}
				h.acct = got
				switch {
				case d.Empty():
				case st.Rebuilt:
					rebuilt++
				case want.completed:
					t.Fatalf("%s step %d: incremental pass, but scratch needed the completion sweep", label, step)
				default:
					incremental++
				}
			}
		}
	}
	t.Logf("%d incremental passes, %d rebuilt", incremental, rebuilt)
	if incremental < rebuilt/4 {
		t.Errorf("only %d incremental passes beside %d rebuilt: the corpus no longer exercises the patch path", incremental, rebuilt)
	}
}

func seeds(from, to int64) []int64 {
	var out []int64
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return out
}

// TestMaintainEmptyDelta returns the same account untouched.
func TestMaintainEmptyDelta(t *testing.T) {
	h := newHarness(t, privilege.Public)
	h.addNode("a", "", policy.Visible, graph.Features{"name": "a"})
	h.step(false)
	got, st, err := Maintain(h.acct, h.spec, Delta{}, &PreState{})
	if err != nil || got != h.acct || st.Rebuilt {
		t.Fatalf("empty delta: got %p (acct %p), st %+v, err %v", got, h.acct, st, err)
	}
}

// TestMaintainSurrogateIDTakenByNewNode: a surrogate whose id later comes
// to name a node of G stops being applicable (selectSurrogate), in
// generation and in maintenance alike. The delta that adds that node
// regenerates, and the hidden original falls back to its next surrogate.
func TestMaintainSurrogateIDTakenByNewNode(t *testing.T) {
	h := newHarness(t, privilege.Public)
	h.addNode("a", "", policy.Visible, graph.Features{"name": "a"})
	h.addNode("y", "Protected", policy.Surrogate, graph.Features{"name": "y"})
	h.addEdge("y", "a")
	h.addSurrogate("y", "x", privilege.Public, 0.5)
	h.addSurrogate("y", "y2", privilege.Public, 0.4)
	h.step(false)
	if got := h.acct.FromOriginal["y"]; got != "x" {
		t.Fatalf("y stands as %q, want its best surrogate x", got)
	}

	h.addNode("x", "", policy.Visible, graph.Features{"name": "x"})
	h.addEdge("x", "a")
	if st := h.step(true); st.Cause != CauseSurrogateChange {
		t.Fatalf("rebuild cause %q, want %q", st.Cause, CauseSurrogateChange)
	}
	if got := h.acct.FromOriginal["y"]; got != "y2" {
		t.Fatalf("y stands as %q once x is a node, want y2", got)
	}
	if n, _ := h.acct.Graph.NodeByID("x"); n.Features["name"] != "x" || h.acct.ToOriginal["x"] != "x" {
		t.Fatalf("x is not the original x: %v -> %s", n.Features, h.acct.ToOriginal["x"])
	}
}
