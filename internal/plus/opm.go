package plus

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file implements import/export in an Open Provenance Model flavoured
// JSON form. The paper grounds its provenance terminology in OPM (footnote
// 1 cites the OPM core specification); PLUS deployments exchanged lineage
// with other systems in OPM terms: artifacts, processes, and the "used" /
// "wasGeneratedBy" dependencies between them. The mapping onto the store
// is direct: artifacts are Data objects, processes are Invocations,
// used(P, A) is an edge A -> P and wasGeneratedBy(A, P) is an edge P -> A
// (store edges point along dataflow).
//
// Sensitivity annotations (lowest / protect) travel in an "x-plus"
// extension block per entity, so a round trip through OPM preserves the
// release policy; foreign documents without the block import as public.

// OPMDocument is the interchange shape.
type OPMDocument struct {
	Artifacts      []OPMArtifact   `json:"artifacts"`
	Processes      []OPMProcess    `json:"processes"`
	Used           []OPMDependency `json:"used"`
	WasGeneratedBy []OPMDependency `json:"wasGeneratedBy"`
}

// OPMArtifact is an OPM artifact (a Data object).
type OPMArtifact struct {
	ID    string            `json:"id"`
	Value string            `json:"value,omitempty"` // display name
	Notes map[string]string `json:"notes,omitempty"`
	XPlus *OPMXPlus         `json:"x-plus,omitempty"`
}

// OPMProcess is an OPM process (an Invocation).
type OPMProcess struct {
	ID    string            `json:"id"`
	Value string            `json:"value,omitempty"`
	Notes map[string]string `json:"notes,omitempty"`
	XPlus *OPMXPlus         `json:"x-plus,omitempty"`
}

// OPMDependency is one used/wasGeneratedBy arc. For used, Effect is the
// process and Cause the artifact consumed; for wasGeneratedBy, Effect is
// the artifact and Cause the generating process.
type OPMDependency struct {
	Effect string `json:"effect"`
	Cause  string `json:"cause"`
	Role   string `json:"role,omitempty"`
}

// OPMXPlus carries the PLUS sensitivity extension.
type OPMXPlus struct {
	Lowest  string `json:"lowest,omitempty"`
	Protect string `json:"protect,omitempty"`
}

// ExportOPM writes a backend's whole contents as an OPM document. The
// export runs over one immutable snapshot, so a concurrent writer can
// never tear the document.
func ExportOPM(b Backend, w io.Writer) error {
	sn, err := b.Snapshot()
	if err != nil {
		return err
	}
	doc := OPMDocument{
		Artifacts:      []OPMArtifact{},
		Processes:      []OPMProcess{},
		Used:           []OPMDependency{},
		WasGeneratedBy: []OPMDependency{},
	}
	ids := make([]string, 0, sn.NumObjects())
	sn.eachObject(func(o Object) { ids = append(ids, o.ID) })
	sort.Strings(ids)
	kind := map[string]ObjectKind{}
	for _, id := range ids {
		o, _ := sn.Object(id)
		kind[id] = o.Kind
		var x *OPMXPlus
		if o.Lowest != "" || o.Protect != "" {
			x = &OPMXPlus{Lowest: o.Lowest, Protect: o.Protect}
		}
		if o.Kind == Data {
			doc.Artifacts = append(doc.Artifacts, OPMArtifact{ID: id, Value: o.Name, Notes: o.Features, XPlus: x})
		} else {
			doc.Processes = append(doc.Processes, OPMProcess{ID: id, Value: o.Name, Notes: o.Features, XPlus: x})
		}
	}
	for _, id := range ids {
		for _, e := range sn.Out(id) {
			dep := OPMDependency{Role: e.Label}
			if kind[e.To] == Invocation {
				// artifact -> process: the process used the artifact.
				dep.Effect, dep.Cause = e.To, e.From
				doc.Used = append(doc.Used, dep)
			} else {
				// anything -> artifact (or process -> process, which OPM
				// models as generation of the downstream entity).
				dep.Effect, dep.Cause = e.To, e.From
				doc.WasGeneratedBy = append(doc.WasGeneratedBy, dep)
			}
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ImportOPM reads an OPM document and stores its contents in a backend
// as one atomic batch: a document that fails validation (a dependency
// naming an unknown entity, say) leaves the backend untouched. Entities
// are applied before dependencies, so a well-formed document always
// imports. Edge direction follows dataflow: used(P, A) becomes A -> P,
// wasGeneratedBy(A, P) becomes P -> A.
func ImportOPM(b Backend, r io.Reader) error {
	var doc OPMDocument
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("plus: opm decode: %w", err)
	}
	var batch Batch
	for _, a := range doc.Artifacts {
		o := Object{ID: a.ID, Kind: Data, Name: a.Value, Features: a.Notes}
		if a.XPlus != nil {
			o.Lowest, o.Protect = a.XPlus.Lowest, a.XPlus.Protect
		}
		batch.Objects = append(batch.Objects, o)
	}
	for _, p := range doc.Processes {
		o := Object{ID: p.ID, Kind: Invocation, Name: p.Value, Features: p.Notes}
		if p.XPlus != nil {
			o.Lowest, o.Protect = p.XPlus.Lowest, p.XPlus.Protect
		}
		batch.Objects = append(batch.Objects, o)
	}
	for _, d := range doc.Used {
		batch.Edges = append(batch.Edges, Edge{From: d.Cause, To: d.Effect, Label: roleOr(d.Role, "used")})
	}
	for _, d := range doc.WasGeneratedBy {
		batch.Edges = append(batch.Edges, Edge{From: d.Cause, To: d.Effect, Label: roleOr(d.Role, "wasGeneratedBy")})
	}
	_, err := b.Apply(batch)
	return err
}

func roleOr(role, fallback string) string {
	if role != "" {
		return role
	}
	return fallback
}
