package plusql

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plus"
	"repro/internal/privilege"
)

// fullObservability is the most expensive realistic telemetry bundle: a
// live registry and a slow-query ring whose threshold no benchmark query
// crosses, so every evaluation pays the histogram and eligibility-check
// cost without the (rare) ring write.
func fullObservability() *plus.Observability {
	return plus.NewObservability(obs.NewRegistry(), obs.NewSlowLog(128, time.Hour), nil)
}

// obsBenchEngines builds paired engines over one shared motif store:
// identical except for telemetry. Views/caches are pre-warmed so the
// measured loop is the steady-state hot path.
func obsBenchEngines(tb testing.TB) (off, on *Engine, loff, lon *plus.Engine) {
	tb.Helper()
	be := motifStore(tb, 5)
	lat := privilege.TwoLevel()
	off = NewEngine(be, lat)
	on = NewEngine(be, lat)
	on.SetObservability(fullObservability())
	loff = plus.NewEngine(be, lat)
	lon = plus.NewEngine(be, lat)
	lon.SetObservability(fullObservability())
	for _, e := range []*Engine{off, on} {
		if _, err := e.Query(benchQuery, Options{}); err != nil {
			tb.Fatal(err)
		}
	}
	return off, on, loff, lon
}

func benchPlusql(b *testing.B, e *Engine) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := e.Query(benchQuery, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rs.Stats.Rows == 0 {
			b.Fatal("no rows")
		}
	}
}

func benchLineage(b *testing.B, en *plus.Engine) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := en.Lineage(plus.Request{Start: "t", Direction: graph.Backward})
		if err != nil {
			b.Fatal(err)
		}
		if res.Account.Graph.NumNodes() == 0 {
			b.Fatal("empty account")
		}
	}
}

// BenchmarkObsOverhead pairs the PLUSQL and lineage hot paths with and
// without full instrumentation (registry histograms + slow-query
// eligibility checks). Compare instrumented vs uninstrumented ns/op —
// the delta is the telemetry tax; TestObsOverheadGuard pins it <5%.
func BenchmarkObsOverhead(b *testing.B) {
	off, on, loff, lon := obsBenchEngines(b)
	b.Run("plusql/uninstrumented", func(b *testing.B) { benchPlusql(b, off) })
	b.Run("plusql/instrumented", func(b *testing.B) { benchPlusql(b, on) })
	b.Run("lineage/uninstrumented", func(b *testing.B) { benchLineage(b, loff) })
	b.Run("lineage/instrumented", func(b *testing.B) { benchLineage(b, lon) })
}

// TestObsOverheadGuard pins what full instrumentation adds to the PLUSQL
// and lineage hot paths without reading a clock: an instrumented call may
// allocate at most maxExtra more times than the same call uninstrumented
// (testing.AllocsPerRun over one store and warm views), and its hooks must
// have fired — the total-phase histogram counted every instrumented call.
// The hooks observe into preallocated histograms, so today they add no
// allocation. What the hooks cost in time is BenchmarkObsOverhead's to
// report; a wall-clock share asserted here would grow flakier as the
// paths it divides by get cheaper.
func TestObsOverheadGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	off, on, loff, lon := obsBenchEngines(t)
	qo, lo := fullObservability(), fullObservability()
	on.SetObservability(qo)
	lon.SetObservability(lo)
	const runs, maxExtra = 50, 1
	paths := []struct {
		name    string
		off, on func()
		reg     *obs.Registry
		family  string
	}{
		{
			name:   "plusql",
			off:    func() { _, _ = off.Query(benchQuery, Options{}) },
			on:     func() { _, _ = on.Query(benchQuery, Options{}) },
			reg:    qo.Registry(),
			family: "plus_plusql_seconds",
		},
		{
			name:   "lineage",
			off:    func() { _, _ = loff.Lineage(plus.Request{Start: "t", Direction: graph.Backward}) },
			on:     func() { _, _ = lon.Lineage(plus.Request{Start: "t", Direction: graph.Backward}) },
			reg:    lo.Registry(),
			family: "plus_lineage_seconds",
		},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			base := testing.AllocsPerRun(runs, p.off)
			inst := testing.AllocsPerRun(runs, p.on)
			t.Logf("%s: %.1f allocations per call uninstrumented, %.1f instrumented", p.name, base, inst)
			if inst-base > maxExtra {
				t.Errorf("%s: instrumentation adds %.1f allocations per call, want at most %d", p.name, inst-base, maxExtra)
			}
			// AllocsPerRun makes one warm-up call before its runs.
			if got := totalCount(p.reg, p.family); got != runs+1 {
				t.Errorf("%s: %s{phase=\"total\"} counted %d calls, want %d", p.name, p.family, got, runs+1)
			}
		})
	}
}

// totalCount reads the observation count of family's phase="total"
// series.
func totalCount(reg *obs.Registry, family string) uint64 {
	for _, f := range reg.Gather() {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if len(s.Labels) == 1 && s.Labels[0].Value == "total" {
				return s.Count
			}
		}
	}
	return 0
}
