package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/pkg/plusclient"
)

// top polls GET /v2/metrics?format=json and renders a live operator
// table: store gauges, cache efficiency, per-route HTTP traffic and
// per-op backend latency. The principal needs the admin capability.
func topCommand(ctx context.Context, c *plusclient.Client, server string, rest []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	count := fs.Int("n", 0, "exit after this many refreshes (0 = until interrupted)")
	once := fs.Bool("once", false, "print one snapshot and exit (same as -n 1)")
	_ = fs.Parse(rest)
	if *once {
		*count = 1
	}
	for i := 0; ; i++ {
		fams, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		if *count != 1 {
			// Home the cursor and wipe: a live table, not a scroll.
			fmt.Print("\033[H\033[2J")
		}
		if err := renderTop(os.Stdout, server, fams); err != nil {
			return err
		}
		if *count > 0 && i+1 >= *count {
			return nil
		}
		time.Sleep(*interval)
	}
}

// byName indexes a gathered snapshot for random access.
func byName(fams []obs.Family) map[string]obs.Family {
	m := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		m[f.Name] = f
	}
	return m
}

// labelOf reads one label value off a series ("" when absent).
func labelOf(s obs.Series, name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// firstValue reads the single-series value of a gauge/counter family.
func firstValue(m map[string]obs.Family, name string) float64 {
	f, ok := m[name]
	if !ok || len(f.Series) == 0 {
		return 0
	}
	return f.Series[0].Value
}

// sumValues totals every series of a counter family, optionally
// filtered by a label predicate.
func sumValues(m map[string]obs.Family, name string, keep func(obs.Series) bool) float64 {
	var total float64
	for _, s := range m[name].Series {
		if keep == nil || keep(s) {
			total += s.Value
		}
	}
	return total
}

// fmtDur renders a quantile (seconds) compactly for the table.
func fmtDur(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(time.Microsecond).String()
}

func renderTop(w io.Writer, server string, fams []obs.Family) error {
	m := byName(fams)
	uptime := time.Duration(firstValue(m, "plus_uptime_seconds")) * time.Second
	fmt.Fprintf(w, "plusd %s  up %s  refreshed %s\n\n",
		server, uptime.Round(time.Second), time.Now().Format("15:04:05"))

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "store\tobjects %.0f, edges %.0f, revision %.0f, log %.0f bytes\n",
		firstValue(m, "plus_store_objects"), firstValue(m, "plus_store_edges"),
		firstValue(m, "plus_store_revision"), firstValue(m, "plus_store_log_bytes"))
	if _, ok := m["plus_store_snapshots_built_total"]; ok {
		fmt.Fprintf(tw, "snapshots\t%.0f built, %.0f buckets copied (%.0f records)\n",
			firstValue(m, "plus_store_snapshots_built_total"),
			firstValue(m, "plus_store_bucket_copies_total"),
			firstValue(m, "plus_store_records_copied_total"))
	}
	if _, ok := m["plus_changefeed_ring_depth"]; ok {
		fmt.Fprintf(tw, "changefeed\tbase %.0f, depth %.0f / horizon %.0f, wakeups %.0f\n",
			firstValue(m, "plus_changefeed_base_revision"),
			firstValue(m, "plus_changefeed_ring_depth"),
			firstValue(m, "plus_changefeed_horizon"),
			firstValue(m, "plus_notify_wakeups_total"))
	}
	if _, ok := m["plus_lineage_cache_hits_total"]; ok {
		fmt.Fprintf(tw, "lineage cache\t%.0f entries (%.0f closure nodes), %.0f hits, %.0f misses, %.0f delta-evictions, %.0f capacity-evictions\n",
			firstValue(m, "plus_lineage_cache_entries"),
			firstValue(m, "plus_lineage_cache_closure_nodes"),
			firstValue(m, "plus_lineage_cache_hits_total"),
			firstValue(m, "plus_lineage_cache_misses_total"),
			firstValue(m, "plus_lineage_cache_delta_evictions_total"),
			firstValue(m, "plus_lineage_cache_capacity_evictions_total"))
	}
	if _, ok := m["plus_query_view_hits_total"]; ok {
		fmt.Fprintf(tw, "query views\t%.0f cached, %.0f hits, %.0f misses, %.0f full builds\n",
			firstValue(m, "plus_query_view_cache_entries"),
			firstValue(m, "plus_query_view_hits_total"),
			firstValue(m, "plus_query_view_misses_total"),
			firstValue(m, "plus_query_view_full_builds_total"))
	}
	denied := sumValues(m, "plus_authz_total", func(s obs.Series) bool {
		return labelOf(s, "outcome") != "ok"
	})
	fmt.Fprintf(tw, "auth\t%.0f denied, %.0f bad tokens, %.0f slow queries\n",
		denied,
		sumValues(m, "plus_token_verify_total", func(s obs.Series) bool {
			return labelOf(s, "outcome") != "ok"
		}),
		sumValues(m, "plus_slow_queries_total", nil))
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "route\tcount\terrors\tp50\tp99")
	errsByRoute := map[string]float64{}
	for _, s := range m["plus_http_requests_total"].Series {
		if st := labelOf(s, "status"); len(st) > 0 && st[0] >= '4' {
			errsByRoute[labelOf(s, "route")] += s.Value
		}
	}
	lat := m["plus_http_request_seconds"].Series
	sort.Slice(lat, func(i, j int) bool { return lat[i].Count > lat[j].Count })
	for _, s := range lat {
		route := labelOf(s, "route")
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%s\t%s\n",
			route, s.Count, errsByRoute[route],
			fmtDur(s.Quantiles["0.5"]), fmtDur(s.Quantiles["0.99"]))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if ops := m["plus_backend_op_seconds"].Series; len(ops) > 0 {
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "backend op\tcount\tp50\tp99")
		for _, s := range ops {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n",
				labelOf(s, "op"), s.Count, fmtDur(s.Quantiles["0.5"]), fmtDur(s.Quantiles["0.99"]))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	for _, eng := range []struct{ fam, title string }{
		{"plus_lineage_seconds", "lineage phase"},
		{"plus_plusql_seconds", "plusql phase"},
	} {
		series := m[eng.fam].Series
		if len(series) == 0 {
			continue
		}
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "%s\tcount\tp50\tp99\n", eng.title)
		for _, s := range series {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n",
				labelOf(s, "phase"), s.Count, fmtDur(s.Quantiles["0.5"]), fmtDur(s.Quantiles["0.99"]))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
