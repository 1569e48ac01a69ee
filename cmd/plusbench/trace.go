package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run. A request's root span
// is the SDK call as the harness saw it; its children come from the
// phase block the server put in the reply. Times are microseconds since
// the measured phase began. The reply carries durations, not start
// times, so children are laid end to end from their parent's start —
// their lengths are measured, their offsets are not.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace"` // the X-Plus-Request-Id the harness sent
	Name   string `json:"name"`
	Client int    `json:"client"`
	Start  int64  `json:"startUs"`
	End    int64  `json:"endUs"`
}

// computedFilter tells computed lineage answers from cache replays. A
// hit replays the Timing block of the request that computed the answer,
// so an identical total for the same request means nothing was computed
// this time. Warm-up replies seed it; the drivers of a traced run share it.
type computedFilter struct {
	mu   sync.Mutex
	seen map[string]int64
}

func newComputedFilter() *computedFilter { return &computedFilter{seen: map[string]int64{}} }

// computed records the reply and reports whether it was computed anew.
func (f *computedFilter) computed(key string, totalUS int64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if prev, ok := f.seen[key]; ok && prev == totalUS {
		return false
	}
	f.seen[key] = totalUS
	return true
}

// trace records the root span of one answered request, the children its
// reply describes and the (R) sums read from the same reply.
func (d *driver) trace(o op, r reply, reqID string, start, end time.Duration) {
	// Ids are unique per trace file: client index in the high digits.
	id := func() int { return d.idx*10_000_000 + len(d.spans) + 1 }
	root := span{ID: id(), Trace: reqID, Name: "plusclient." + classNames[o.Class], Client: d.idx,
		Start: start.Microseconds(), End: end.Microseconds()}
	d.spans = append(d.spans, root)
	at := root.Start
	child := func(parent int, name string, us int64) int {
		s := span{ID: id(), Parent: parent, Trace: reqID, Name: name, Client: d.idx, Start: at, End: at + us}
		d.spans = append(d.spans, s)
		return s.ID
	}
	var children int64
	switch {
	case r.lineage != nil:
		t := r.lineage.Timing
		if d.filter.computed(o.key(), t.TotalUS) {
			engine := child(root.ID, "plus.engine", t.TotalUS)
			for _, p := range []struct {
				name string
				us   int64
			}{{"plus.engine.dbaccess", t.DBAccessUS}, {"plus.engine.build", t.BuildUS}, {"account.generate", t.ProtectUS}} {
				child(engine, p.name, p.us)
				at += p.us
			}
			children = t.TotalUS
		}
		d.pathUtil = append(d.pathUtil, r.lineage.PathUtility)
		d.nodeUtil = append(d.nodeUtil, r.lineage.NodeUtility)
	case r.query != nil:
		if p := r.query.Phases; p != nil {
			engine := child(root.ID, "plusql", p.TotalUS)
			for _, ph := range []struct {
				name string
				us   int64
			}{{"plusql.parse", p.ParseUS}, {"plusql.view", p.ViewUS}, {"plusql.plan", p.PlanUS}, {"plusql.exec", p.ExecUS}} {
				child(engine, ph.name, ph.us)
				at += ph.us
			}
			children = p.TotalUS
		}
		d.examined += r.query.Stats.Examined
		d.rows += r.query.Stats.Rows
	}
	// Self time: the root's duration minus what its children cover — SDK,
	// HTTP, JSON both ways and, for lineage, the utility measures.
	d.selfMS[o.Class] = append(d.selfMS[o.Class], float64(root.End-root.Start-children)/1e3)
}

// writeSpans writes the run's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
