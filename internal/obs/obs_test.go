package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration returns the same series.
	if got := r.Counter("c_total", "a counter").Value(); got != 5 {
		t.Fatalf("re-registered counter = %d, want 5", got)
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}

	cv := r.CounterVec("http_total", "by route", "route", "status")
	cv.With("/v2/query", "200").Add(3)
	cv.With("/v2/query", "500").Inc()
	if got := cv.With("/v2/query", "200").Value(); got != 3 {
		t.Fatalf("labeled counter = %d, want 3", got)
	}
}

func TestGaugeFuncVec(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	gv := r.GaugeFuncVec("idx_entries", "per-index entries", "index")
	gv.Register(func() float64 { return v }, "kind")
	gv.Register(func() float64 { return 2 * v }, "name")
	fams := r.Gather()
	if len(fams) != 1 || len(fams[0].Series) != 2 {
		t.Fatalf("gather = %+v, want one family with two series", fams)
	}
	// Series are sorted by label value: kind before name.
	if s := fams[0].Series[0]; s.Labels[0].Value != "kind" || s.Value != 7 {
		t.Fatalf("series[0] = %+v, want kind=7", s)
	}
	if s := fams[0].Series[1]; s.Labels[0].Value != "name" || s.Value != 14 {
		t.Fatalf("series[1] = %+v, want name=14", s)
	}
	// Callbacks are read at render time, and re-registration replaces.
	v = 9
	gv.Register(func() float64 { return -1 }, "name")
	fams = r.Gather()
	if fams[0].Series[0].Value != 9 || fams[0].Series[1].Value != -1 {
		t.Fatalf("re-gather = %+v, want kind=9 name=-1", fams[0].Series)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every accessor and the handles it returns must be callable on nil.
	r.Counter("x", "").Inc()
	r.CounterVec("y", "", "l").With("v").Add(2)
	r.Gauge("z", "").Set(1)
	r.Histogram("h", "", ScaleNanos).Observe(100)
	r.HistogramVec("hv", "", 1, "l").With("v").ObserveSince(time.Now())
	r.GaugeFunc("gf", "", func() float64 { return 1 })
	r.CounterFunc("cf", "", func() float64 { return 1 })
	r.GaugeFuncVec("gfv", "", "l").Register(func() float64 { return 1 }, "v")
	if fams := r.Gather(); fams != nil {
		t.Fatalf("nil registry Gather = %v, want nil", fams)
	}
	var l *SlowLog
	if l.Record(SlowEntry{}) {
		t.Fatal("nil slowlog recorded an entry")
	}
	if l.Eligible(0) {
		t.Fatal("nil slowlog reported eligible")
	}
	if l.Entries() != nil || l.Total() != 0 {
		t.Fatal("nil slowlog not empty")
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose upper bound is >= the value
	// and within 12.5% relative error.
	vals := []uint64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 4096, 1 << 20, 1<<40 + 12345, math.MaxUint64}
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= histNumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		up := bucketUpper(i)
		if up < v {
			t.Fatalf("bucketUpper(bucketIndex(%d)) = %d < value", v, up)
		}
		if v > 0 && float64(up-v) > 0.125*float64(v) {
			t.Fatalf("bucket error for %d: upper %d exceeds 12.5%%", v, up)
		}
		if i > 0 && bucketUpper(i-1) >= v {
			t.Fatalf("value %d should not fit in bucket %d (upper %d)", v, i-1, bucketUpper(i-1))
		}
	}
	// Bucket uppers must be strictly increasing.
	for i := 1; i < histNumBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucketUpper not monotone at %d: %d <= %d", i, bucketUpper(i), bucketUpper(i-1))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", 1)
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	snap := h.Snapshot()
	if snap.Count != 1000 {
		t.Fatalf("count = %d, want 1000", snap.Count)
	}
	if snap.Sum != 500500 {
		t.Fatalf("sum = %d, want 500500", snap.Sum)
	}
	check := func(name string, got, want uint64) {
		t.Helper()
		// Quantiles carry up to one bucket (12.5%) of upward error.
		if got < want || float64(got-want) > 0.125*float64(want) {
			t.Fatalf("%s = %d, want within 12.5%% above %d", name, got, want)
		}
	}
	check("p50", snap.P50, 500)
	check("p95", snap.P95, 950)
	check("p99", snap.P99, 990)
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	// Snapshot concurrently with the writers: counts must be monotone.
	var last uint64
	for i := 0; i < 50; i++ {
		snap := h.Snapshot()
		if snap.Count < last {
			t.Fatalf("count went backwards: %d -> %d", last, snap.Count)
		}
		last = snap.Count
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("final count = %d, want 8000", got)
	}
}

func TestGoldenPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("plus_http_requests_total", "HTTP requests served.", "route", "status").With("/v2/query", "200").Add(7)
	r.Gauge("plus_store_objects", "Objects in the store.").Set(42)
	r.GaugeFunc("plus_uptime_seconds", "Seconds since start.", func() float64 { return 3.5 })
	h := r.Histogram("plus_lineage_seconds", "Lineage query latency.", ScaleNanos)
	h.Observe(1000) // single observation: all quantiles hit one bucket

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	up := float64(bucketUpper(bucketIndex(1000))) * ScaleNanos
	upStr := formatPromValue(up)
	sumStr := formatPromValue(float64(uint64(1000)) * ScaleNanos)
	want := strings.Join([]string{
		"# HELP plus_http_requests_total HTTP requests served.",
		"# TYPE plus_http_requests_total counter",
		`plus_http_requests_total{route="/v2/query",status="200"} 7`,
		"# HELP plus_lineage_seconds Lineage query latency.",
		"# TYPE plus_lineage_seconds summary",
		`plus_lineage_seconds{quantile="0.5"} ` + upStr,
		`plus_lineage_seconds{quantile="0.95"} ` + upStr,
		`plus_lineage_seconds{quantile="0.99"} ` + upStr,
		"plus_lineage_seconds_sum " + sumStr,
		"plus_lineage_seconds_count 1",
		"# HELP plus_store_objects Objects in the store.",
		"# TYPE plus_store_objects gauge",
		"plus_store_objects 42",
		"# HELP plus_uptime_seconds Seconds since start.",
		"# TYPE plus_uptime_seconds gauge",
		"plus_uptime_seconds 3.5",
		"",
	}, "\n")
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "", "q").With("say \"hi\"\nback\\slash").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{q="say \"hi\"\nback\\slash"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped exposition missing %q in:\n%s", want, b.String())
	}
}

func TestRequestID(t *testing.T) {
	id := NewRequestID()
	if len(id) != 16 {
		t.Fatalf("request ID %q not 16 hex chars", id)
	}
	if id2 := NewRequestID(); id2 == id {
		t.Fatalf("two request IDs collided: %q", id)
	}
	ctx := WithRequestID(context.Background(), id)
	if got := RequestID(ctx); got != id {
		t.Fatalf("RequestID = %q, want %q", got, id)
	}
	if got := RequestID(context.Background()); got != "" {
		t.Fatalf("RequestID on untagged context = %q, want empty", got)
	}
	// Empty ID is not stored.
	if got := RequestID(WithRequestID(context.Background(), "")); got != "" {
		t.Fatalf("empty ID stored: %q", got)
	}
}

func TestSlowLog(t *testing.T) {
	l := NewSlowLog(3, 5*time.Millisecond)
	if l.Eligible(time.Millisecond) {
		t.Fatal("1ms eligible under a 5ms threshold")
	}
	if l.Record(SlowEntry{Kind: "plusql", TotalUS: 1000}) {
		t.Fatal("recorded a fast query")
	}
	for i := 0; i < 5; i++ {
		ok := l.Record(SlowEntry{Kind: "plusql", Query: string(rune('a' + i)), TotalUS: 10000 + int64(i)})
		if !ok {
			t.Fatalf("slow entry %d not recorded", i)
		}
	}
	if got := l.Total(); got != 5 {
		t.Fatalf("total = %d, want 5", got)
	}
	got := l.Entries()
	if len(got) != 3 {
		t.Fatalf("ring kept %d entries, want 3", len(got))
	}
	// Oldest-first: entries c, d, e survive.
	for i, want := range []string{"c", "d", "e"} {
		if got[i].Query != want {
			t.Fatalf("entry %d = %q, want %q", i, got[i].Query, want)
		}
	}
	// Threshold 0 records everything.
	if !NewSlowLog(1, 0).Record(SlowEntry{Kind: "lineage", TotalUS: 0}) {
		t.Fatal("zero-threshold log rejected an entry")
	}
}

func TestSlowLogDefaults(t *testing.T) {
	l := NewSlowLog(0, 0)
	e := SlowEntry{Kind: "plusql"}
	l.Record(e)
	got := l.Entries()
	if len(got) != 1 {
		t.Fatalf("entries = %d, want 1", len(got))
	}
	if got[0].Time.IsZero() {
		t.Fatal("Record did not stamp a time")
	}
}
