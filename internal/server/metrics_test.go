package server

import (
	"strings"
	"testing"
	"time"

	"github.com/memgaze/memgaze-go/internal/cluster"
)

// TestHistogramBuckets pins bucket assignment and the cumulative
// Prometheus rendering.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(latencyBuckets)
	h.ObserveDuration(200 * time.Microsecond) // <= 0.0005
	h.ObserveDuration(3 * time.Millisecond)   // <= 0.005
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDuration(20 * time.Second) // +Inf
	if h.count.Load() != 4 {
		t.Fatalf("count = %d", h.count.Load())
	}
	if got := h.counts[0].Load(); got != 1 {
		t.Errorf("bucket 0 = %d", got)
	}
	if got := h.counts[2].Load(); got != 2 {
		t.Errorf("bucket le=0.005 = %d", got)
	}
	if got := h.counts[len(latencyBuckets)].Load(); got != 1 {
		t.Errorf("+Inf bucket = %d", got)
	}
	wantSum := (200*time.Microsecond + 6*time.Millisecond + 20*time.Second).Nanoseconds()
	if h.sum.Load() != wantSum {
		t.Errorf("sum = %d, want %d", h.sum.Load(), wantSum)
	}

	// Native-unit observation: a bytes histogram buckets by value.
	hb := newHistogram(streamByteBuckets)
	hb.Observe(1000)      // <= 4096
	hb.Observe(100 << 20) // <= 256 MiB
	if got := hb.counts[0].Load(); got != 1 {
		t.Errorf("byte bucket 0 = %d", got)
	}
	if hb.sum.Load() != 1000+100<<20 {
		t.Errorf("byte sum = %d", hb.sum.Load())
	}
}

// TestPrometheusRendering checks the exposition format: every family
// present, counters reflected, deterministic repeated rendering.
func TestPrometheusRendering(t *testing.T) {
	m := newMetrics()
	store := NewStore(1000)
	rc := newResultCache(1000)
	m.requests["analyze"].Add(3)
	m.errors["analyze"].Add(1)
	m.latency["analyze"].ObserveDuration(2 * time.Millisecond)
	m.cacheHits.Add(2)
	m.coalesced.Add(1)
	m.ObserveAnalysis("mrc", 5*time.Millisecond)
	m.ObserveAnalysis("not-an-analysis", time.Second) // ignored, no panic

	cl, err := cluster.New(cluster.Config{Self: "localhost", Peers: []string{"localhost"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var b1, b2 strings.Builder
	m.WritePrometheus(&b1, store, rc, nil, cl)
	m.WritePrometheus(&b2, store, rc, nil, cl)
	out := b1.String()
	if out != b2.String() {
		t.Error("rendering is not deterministic")
	}
	for _, want := range []string{
		`memgazed_requests_total{endpoint="analyze"} 3`,
		`memgazed_errors_total{endpoint="analyze"} 1`,
		`memgazed_request_duration_seconds_bucket{endpoint="analyze",le="0.005"} 1`,
		`memgazed_request_duration_seconds_count{endpoint="analyze"} 1`,
		`memgazed_result_cache_hits_total 2`,
		`memgazed_result_cache_misses_total 0`,
		`memgazed_singleflight_coalesced_total 1`,
		`memgazed_store_traces 0`,
		`memgazed_store_budget_bytes 1000`,
		`memgazed_store_evictions_total 0`,
		`memgazed_analysis_duration_seconds_sum{analysis="mrc"} 0.005`,
		`memgazed_analysis_duration_seconds_count{analysis="mrc"} 1`,
		"# TYPE memgazed_request_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendering", want)
		}
	}
	if strings.Contains(out, "not-an-analysis") {
		t.Error("unknown analysis name leaked into rendering")
	}
}
