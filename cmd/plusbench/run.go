package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/plus"
	"repro/internal/plusql"
	"repro/internal/workload"
	"repro/pkg/plusclient"
)

// runConfig is one run of one workload.
type runConfig struct {
	Spec  workloadSpec
	Graph graphParams
	// Seconds bounds the measured phase by wall time; MaxOps bounds each
	// client's sequence by count (-smoke). Whichever is reached first ends
	// the client's loop; zero disables that bound.
	Seconds float64
	MaxOps  int
	// Setups is how many times the set-up runs; the reported set-up
	// metrics are medians over them and the last one is measured on.
	Setups int
	// VerifySamples is how many served answers the end-of-run verification
	// compares with a fresh engine's.
	VerifySamples int
	// Traced keeps one root span per request plus the reply's phase block
	// and scrapes the server before and after the measured phase.
	Traced bool
}

// runResult is what one run measured.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Measured  float64  `json:"measuredSeconds"`
	// SetupsS and VerifyS are the wall time the run spent outside the
	// measured phase: all its set-ups, and the end-of-run verification.
	SetupsS  float64            `json:"setupsSeconds"`
	VerifyS  float64            `json:"verifySeconds"`
	EndToEnd map[string]float64 `json:"endToEnd"`
	PerLayer map[string]float64 `json:"perLayer,omitempty"`
	// Samples counts the measured operations per class; every timing in
	// the report is read beside it.
	Samples map[string]int `json:"samples"`
	// Digest hashes the sorted ids of each client's first DigestOps
	// replies (read-only workloads); one seed must always give one digest.
	Digest string `json:"answersDigest,omitempty"`
	Spans  []span `json:"-"`
}

// setupResult is one pass of exec → healthz → bulk load → warm-up.
type setupResult struct {
	target     target
	setupS     float64
	ingestRate float64
	firstQuery float64
	// Durable only, medians of the set-up's coldStarts restarts: kill -9 →
	// exec → healthz, and the same up to the first PLUSQL answer decoded.
	reopenS    float64
	coldStartS float64
	loaded     acked
	// warmed knows the lineage answers the warm-up left in the cache.
	warmed *computedFilter
}

// acked totals what the server acknowledged; after a restart the store
// must report exactly this.
type acked struct {
	objects, edges int
	revision       uint64
}

func (a *acked) add(b acked) {
	a.objects += b.objects
	a.edges += b.edges
	if b.revision > a.revision {
		a.revision = b.revision
	}
}

func ackOf(r plusclient.BatchResponse) acked {
	return acked{objects: r.Objects, edges: r.Edges, revision: r.Revision}
}

func (a acked) matches(h plus.HealthzResponse) error {
	if h.Objects != a.objects || h.Edges != a.edges || h.Revision != a.revision {
		return fmt.Errorf("store has %d objects, %d edges at revision %d; acknowledged %d, %d at %d",
			h.Objects, h.Edges, h.Revision, a.objects, a.edges, a.revision)
	}
	return nil
}

// clients holds one SDK client per viewer over one shared connection
// pool (a closed loop keeps one connection per driving goroutine).
type clients [2]*plusclient.Client

func newClients(base string) clients {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	var c clients
	for v, name := range viewerNames {
		c[v] = plusclient.New(base, plusclient.WithHTTPClient(hc), plusclient.WithViewer(name))
	}
	return c
}

// reply is the checked outcome of one op.
type reply struct {
	// ids are the node, edge and binding ids the answer exposed.
	ids     []string
	lineage *plus.LineageResponse
	query   *plusql.QueryResponse
	batch   plusclient.BatchResponse
}

// issue sends one op and returns its answer. A 403 on a protected
// record fetched as Public is the correct answer, not an error.
func (c clients) issue(ctx context.Context, o op) (reply, error) {
	var r reply
	switch o.Class {
	case clsLineage:
		resp, err := c[o.Viewer].Lineage(ctx, plusclient.LineageRequest{Start: o.Start, Depth: o.Depth})
		if err != nil {
			return r, err
		}
		r.lineage = resp
		for _, n := range resp.Nodes {
			r.ids = append(r.ids, n.ID)
		}
		for _, e := range resp.Edges {
			r.ids = append(r.ids, e.From, e.To)
		}
	case clsQuery:
		resp, err := c[o.Viewer].Query(ctx, o.Query, plusclient.QueryOptions{})
		if err != nil {
			return r, err
		}
		r.query = resp
		for _, row := range resp.Rows {
			for _, b := range row {
				r.ids = append(r.ids, b.ID)
			}
		}
	case clsGet:
		obj, err := c[o.Viewer].GetObject(ctx, o.ID)
		hidden := o.Viewer == asPublic && protectedID(o.ID)
		switch {
		case hidden && errors.Is(err, plusclient.ErrForbidden):
			r.ids = []string{"403"}
		case hidden && err == nil:
			return r, fmt.Errorf("leak: Public fetched protected record %s", o.ID)
		case err != nil:
			return r, err
		case obj.ID != o.ID:
			return r, fmt.Errorf("get %s answered %s", o.ID, obj.ID)
		default:
			r.ids = []string{obj.ID}
		}
	case clsBatch:
		resp, err := c[asPublic].Batch(ctx, o.Batch)
		if err != nil {
			return r, err
		}
		r.batch = resp
	}
	if o.Viewer == asPublic {
		for _, id := range r.ids {
			if protectedID(id) {
				return r, fmt.Errorf("leak: %s exposed protected original %s", o.key(), id)
			}
		}
	}
	return r, nil
}

// setUp brings up a fresh server, bulk-loads the graph and warms it.
// Any failure aborts the run: nothing downstream is meaningful.
func setUp(ctx context.Context, l *launcher, cfg runConfig) (setupResult, error) {
	var res setupResult
	t0 := time.Now()
	t, err := l.start(cfg.Spec.Backend)
	if err != nil {
		return res, err
	}
	res.target = t
	c := newClients(t.URL())

	records := 0
	tLoad := time.Now()
	err = workload.GenerateLarge(cfg.Graph.config(), func(b plus.Batch) error {
		records += b.Len()
		ack, err := c[asPublic].Batch(ctx, plusclient.BatchRequest{Objects: b.Objects, Edges: b.Edges, Surrogates: b.Surrogates})
		res.loaded.add(ackOf(ack))
		return err
	})
	if err != nil {
		return res, fmt.Errorf("bulk load: %w", err)
	}
	res.ingestRate = float64(records) / time.Since(tLoad).Seconds()

	// The first PLUSQL answer builds the viewer's whole-store protected
	// view (account.Generate over every object).
	firstQuery := func() (float64, error) {
		asked := time.Now()
		_, err := c.issue(ctx, op{Class: clsQuery, Viewer: asPublic, Query: nameQuery(0)})
		return time.Since(asked).Seconds(), err
	}
	if cfg.Spec.Backend == "log" {
		// The durable workload measures a recovered store: kill -9 the
		// loaded server, reopen its log and ask the first question,
		// coldStarts times over.
		var reopen, first, cold []float64
		for i := 0; i < coldStarts; i++ {
			tReopen := time.Now()
			if err := t.Restart(); err != nil {
				return res, fmt.Errorf("restart %d after load: %w", i+1, err)
			}
			c = newClients(t.URL())
			reopen = append(reopen, time.Since(tReopen).Seconds())
			h, err := c[asPublic].Healthz(ctx)
			if err != nil {
				return res, err
			}
			if err := res.loaded.matches(h); err != nil {
				return res, fmt.Errorf("after kill -9 and reopen %d: %w", i+1, err)
			}
			q, err := firstQuery()
			if err != nil {
				return res, fmt.Errorf("first query after reopen %d: %w", i+1, err)
			}
			first = append(first, q)
			cold = append(cold, time.Since(tReopen).Seconds())
		}
		res.reopenS, res.firstQuery, res.coldStartS = median(reopen), median(first), median(cold)
	} else if res.firstQuery, err = firstQuery(); err != nil {
		return res, fmt.Errorf("first query: %w", err)
	}
	warm := []op{{Class: clsQuery, Viewer: asProtected, Query: nameQuery(0)}}
	if cfg.Spec.Warm != nil {
		warm = append(warm, cfg.Spec.Warm(cfg.Graph)...)
	}
	res.warmed = newComputedFilter()
	for _, o := range warm {
		r, err := c.issue(ctx, o)
		if err != nil {
			return res, fmt.Errorf("warm-up %s: %w", o.key(), err)
		}
		if r.lineage != nil {
			res.warmed.computed(o.key(), r.lineage.Timing.TotalUS)
		}
	}
	res.setupS = time.Since(t0).Seconds()
	return res, nil
}

// driver is one closed-loop client of the measured phase.
type driver struct {
	idx     int
	clients clients
	next    func() op

	attempted, failed int
	problems          []string
	samples           [numClasses][]float64 // ms, raw
	written           []string
	acked             acked
	digest            hash.Hash
	spans             []span
	filter            *computedFilter
	// (R) sums over traced replies.
	pathUtil, nodeUtil []float64
	examined, rows     int
	selfMS             [numClasses][]float64
}

// drive issues the client's sequence until the deadline or op bound.
func (d *driver) drive(ctx context.Context, cfg runConfig, epoch time.Time) {
	deadline := epoch.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for i := 0; cfg.MaxOps == 0 || i < cfg.MaxOps; i++ {
		if cfg.Seconds > 0 && !time.Now().Before(deadline) {
			if i < cfg.Spec.DigestOps {
				// The digest of a shorter prefix is another digest.
				d.problems = append(d.problems, fmt.Sprintf("client %d: answers_digest covers %d operations, only %d done in %.0f s", d.idx, cfg.Spec.DigestOps, i, cfg.Seconds))
			}
			return
		}
		o := d.next()
		rctx, reqID := ctx, ""
		if cfg.Traced {
			reqID = fmt.Sprintf("%04x%04x%08x", uint16(cfg.Graph.Seed), d.idx, i)
			rctx = plusclient.WithRequestID(ctx, reqID)
		}
		t0 := time.Now()
		r, err := d.clients.issue(rctx, o)
		t1 := time.Now()
		d.attempted++
		if err != nil {
			d.failed++
			if len(d.problems) < 5 {
				d.problems = append(d.problems, fmt.Sprintf("client %d op %d (%s): %v", d.idx, i, o.key(), err))
			}
			continue
		}
		ms := t1.Sub(t0).Seconds() * 1e3
		d.samples[o.Class] = append(d.samples[o.Class], ms)
		if o.Class == clsBatch {
			d.acked.add(ackOf(r.batch))
			d.written = append(d.written, o.Batch.Objects[0].ID)
		}
		if i < cfg.Spec.DigestOps {
			sort.Strings(r.ids)
			fmt.Fprintln(d.digest, o.key(), r.ids)
		}
		if cfg.Traced {
			d.trace(o, r, reqID, t0.Sub(epoch), t1.Sub(epoch))
		}
	}
}

// runWorkload sets up, measures and verifies one workload.
func runWorkload(ctx context.Context, l *launcher, cfg runConfig) (*runResult, error) {
	res := &runResult{
		Workload: cfg.Spec.Name, Seed: cfg.Graph.Seed, Traced: cfg.Traced,
		EndToEnd: map[string]float64{}, Samples: map[string]int{},
	}
	var setups []setupResult
	tSetups := time.Now()
	for i := 0; i < cfg.Setups; i++ {
		if i > 0 {
			l.stop(setups[i-1].target)
		}
		s, err := setUp(ctx, l, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", cfg.Spec.Name, i+1, err)
		}
		setups = append(setups, s)
	}
	res.SetupsS = time.Since(tSetups).Seconds()
	last := setups[len(setups)-1]
	t := last.target
	defer l.stop(t)
	over := func(f func(setupResult) float64) float64 {
		var v []float64
		for _, s := range setups {
			v = append(v, f(s))
		}
		return median(v)
	}
	res.EndToEnd["setup_s"] = over(func(s setupResult) float64 { return s.setupS })
	res.EndToEnd["ingest_records_s"] = over(func(s setupResult) float64 { return s.ingestRate })

	drivers := make([]*driver, cfg.Spec.Clients)
	for i := range drivers {
		drivers[i] = &driver{idx: i, clients: newClients(t.URL()), next: cfg.Spec.Seq(cfg.Graph, i),
			digest: sha256.New(), filter: last.warmed}
	}
	var before serverStats
	if cfg.Traced {
		var err error
		if before, err = scrape(ctx, t.URL()); err != nil {
			return nil, err
		}
	}
	srvCPU0, _, err := t.CPU()
	if err != nil {
		return nil, err
	}
	selfCPU0, _, err := procUsage(os.Getpid())
	if err != nil {
		return nil, err
	}

	epoch := time.Now()
	var wg sync.WaitGroup
	for _, d := range drivers {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			d.drive(ctx, cfg, epoch)
		}(d)
	}
	wg.Wait()
	res.Measured = time.Since(epoch).Seconds()

	srvCPU1, rss, err := t.CPU()
	if err != nil {
		return nil, err
	}
	selfCPU1, _, err := procUsage(os.Getpid())
	if err != nil {
		return nil, err
	}

	// Fold the drivers together; classes stay apart.
	var samples [numClasses][]float64
	total := last.loaded
	var written []string
	digest := sha256.New()
	for _, d := range drivers {
		res.Attempted += d.attempted
		res.Failed += d.failed
		res.Problems = append(res.Problems, d.problems...)
		for c := range samples {
			samples[c] = append(samples[c], d.samples[c]...)
		}
		total.add(d.acked)
		written = append(written, d.written...)
		digest.Write(d.digest.Sum(nil))
		res.Spans = append(res.Spans, d.spans...)
	}
	completed := 0
	for c, s := range samples {
		res.Samples[classNames[c]] = len(s)
		completed += len(s)
	}
	if cfg.Spec.DigestOps > 0 {
		res.Digest = hex.EncodeToString(digest.Sum(nil))[:16]
	}
	if completed == 0 || len(samples[cfg.Spec.Headline]) == 0 {
		return nil, fmt.Errorf("%s: no %s operation completed: %v", cfg.Spec.Name, classNames[cfg.Spec.Headline], res.Problems)
	}
	srvCPU := srvCPU1 - srvCPU0
	res.EndToEnd["ops_s"] = float64(completed) / res.Measured
	res.EndToEnd["op_p50_ms"] = median(samples[cfg.Spec.Headline])
	res.EndToEnd["cpu_ms_per_op"] = srvCPU * 1e3 / float64(completed)
	res.EndToEnd["rss_peak_mb"] = rss

	if cfg.Traced {
		after, err := scrape(ctx, t.URL())
		if err != nil {
			return nil, err
		}
		pl := map[string]float64{}
		for _, m := range perLayer {
			pl[m.Name] = 0
		}
		serverLayers(before, after, pl)
		clientLayers(drivers, samples, pl)
		pl["plusd.cpu_s"] = srvCPU
		pl["plusd.first_query_s"] = over(func(s setupResult) float64 { return s.firstQuery })
		pl["plusd.reopen_s"] = over(func(s setupResult) float64 { return s.reopenS })
		pl["plusd.cold_start_s"] = over(func(s setupResult) float64 { return s.coldStartS })
		pl["loadgen.cpu_share"] = ratio(selfCPU1-selfCPU0, selfCPU1-selfCPU0+srvCPU)
		pl["loadgen.ops_s"] = res.EndToEnd["ops_s"]
		res.PerLayer = pl
	}

	// Verification runs on a quiescent store: every driver has returned.
	tVerify := time.Now()
	if cfg.Spec.Backend == "log" {
		if err := t.Restart(); err != nil {
			return nil, fmt.Errorf("%s: final restart: %w", cfg.Spec.Name, err)
		}
	}
	res.Problems = append(res.Problems, verifyStore(ctx, t.URL(), cfg, total, written)...)
	res.VerifyS = time.Since(tVerify).Seconds()
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// clientLayers fills the plusclient, measure, trace and (R) plusql
// metrics from the drivers' raw samples and traced replies.
func clientLayers(drivers []*driver, samples [numClasses][]float64, pl map[string]float64) {
	serverMean := map[int]string{clsLineage: "lineage", clsQuery: "query", clsGet: "objects", clsBatch: "batch"}
	for c, s := range samples {
		name := "plusclient." + classNames[c]
		pl[name+".count"] = float64(len(s))
		pl[name+".p50_ms"] = median(s)
		pl[name+".p95_ms"], _ = tail(s)
		if len(s) > 0 {
			pl[name+".overhead_ms_mean"] = mean(s) - pl["plus.server."+serverMean[c]+".mean_ms"]
		}
	}
	var pathUtil, nodeUtil []float64
	var selfMS [numClasses][]float64
	examined, rows := 0, 0
	for _, d := range drivers {
		pathUtil = append(pathUtil, d.pathUtil...)
		nodeUtil = append(nodeUtil, d.nodeUtil...)
		examined += d.examined
		rows += d.rows
		for c := range selfMS {
			selfMS[c] = append(selfMS[c], d.selfMS[c]...)
		}
	}
	pl["measure.path_utility_mean"] = mean(pathUtil)
	pl["measure.node_utility_mean"] = mean(nodeUtil)
	pl["plusql.exec.examined_per_row"] = ratio(float64(examined), float64(rows))
	pl["trace.self_ms_mean.lineage"] = mean(selfMS[clsLineage])
	pl["trace.self_ms_mean.query"] = mean(selfMS[clsQuery])
}
