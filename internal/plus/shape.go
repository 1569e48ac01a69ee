package plus

import "maps"

// This file holds the one translation between a record's feature map as
// posted (the wire form) and as the store keeps it (the graph form: the
// node's feature map, "name" and, for objects, "kind" under the user's
// features). The ingest funnel shapes each record once, so a lineage miss,
// a view build and a view advance hand the stored map to the graph as it
// is instead of building one per node per read. A record keeps one map: a
// record posted without features keeps none, and its {name, kind} map is
// built where it is used. Reads that hand a record out of the store
// (GetObject, Objects, SurrogatesOf, ChangesSince, Snapshot.Object,
// Snapshot.Objects, Snapshot.Surrogates, Compact) derive the posted form
// back.

// keep bits: a posted "name" (or "kind") feature whose value is the
// record's own Name (Kind). The graph form alone cannot tell such a key
// from the one the store adds, so the record keeps the bit beside it (in
// its bucket and in its change) and the posted form keeps the key.
const (
	postedName uint8 = 1 << iota
	postedKind
)

// shapeObject returns o as the store keeps it, with the keep bits its
// posted form needs back.
func shapeObject(o Object) (Object, uint8) {
	var keep uint8
	o.Features, keep = shape(o.Features, o.Name, string(o.Kind), true)
	return o, keep
}

// shapeSurrogate is shapeObject for a surrogate, whose graph form adds
// only "name".
func shapeSurrogate(sp SurrogateSpec) (SurrogateSpec, uint8) {
	var keep uint8
	sp.Features, keep = shape(sp.Features, sp.Name, "", false)
	return sp, keep
}

// shape returns the graph form of posted features: "name" and (when
// hasKind) "kind" under them, nil for none. The keep bits mark a posted
// "name" or "kind" whose value equals the one the store adds.
func shape(posted map[string]string, name, kind string, hasKind bool) (map[string]string, uint8) {
	if len(posted) == 0 {
		return nil, 0
	}
	g := make(map[string]string, len(posted)+2)
	g["name"] = name
	if hasKind {
		g["kind"] = kind
	}
	maps.Copy(g, posted)
	var keep uint8
	if v, ok := posted["name"]; ok && v == name {
		keep |= postedName
	}
	if v, ok := posted["kind"]; ok && hasKind && v == kind {
		keep |= postedKind
	}
	return g, keep
}

// unshapeObject returns a stored object as it was posted.
func unshapeObject(o Object, keep uint8) Object {
	o.Features = unshape(o.Features, keep, o.Name, string(o.Kind), true)
	return o
}

// unshapeSurrogate returns a stored surrogate as it was posted.
func unshapeSurrogate(sp SurrogateSpec, keep uint8) SurrogateSpec {
	sp.Features = unshape(sp.Features, keep, sp.Name, "", false)
	return sp
}

// unshape removes from graph form g the keys the store added: "name"
// when it holds name, "kind" (when hasKind) when it holds kind, each
// unless keep marks it as posted. It returns g itself when it removes
// nothing; either way the caller must not write into the result.
func unshape(g map[string]string, keep uint8, name, kind string, hasKind bool) map[string]string {
	if g == nil {
		return nil
	}
	dropName := keep&postedName == 0 && g["name"] == name
	dropKind := hasKind && keep&postedKind == 0 && g["kind"] == kind
	if !dropName && !dropKind {
		return g
	}
	w := make(map[string]string, len(g))
	for k, v := range g {
		if (k == "name" && dropName) || (k == "kind" && dropKind) {
			continue
		}
		w[k] = v
	}
	return w
}

// posted returns the change with its record as it was posted.
func (ch Change) posted() Change {
	switch ch.Kind {
	case ChangeObject:
		ch.Object = unshapeObject(ch.Object, ch.keep)
	case ChangeSurrogate:
		ch.Surrogate = unshapeSurrogate(ch.Surrogate, ch.keep)
	}
	ch.keep = 0
	return ch
}
