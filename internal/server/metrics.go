package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/memgaze/memgaze-go/internal/cluster"
	"github.com/memgaze/memgaze-go/internal/engine"
	"github.com/memgaze/memgaze-go/internal/storage"
)

// endpoints are the fixed label values of the per-endpoint metric
// families. Fixing the set at construction keeps every hot-path update
// a plain atomic add — no locks, no map writes after init.
var endpoints = []string{"upload", "stream", "list", "get", "raw", "delete", "analyze", "diff", "healthz", "readyz", "metrics"}

// clusterEndpoints are the fleet-routed endpoints: the ones whose
// requests are either served locally (this replica owns the key, or
// the scatter scope) or proxied to the owner. Diff sides proxy as
// analyze calls, so diff itself is not in the set.
var clusterEndpoints = []string{"upload", "stream", "list", "get", "raw", "delete", "analyze"}

// latencyBuckets are the request-latency upper bounds in seconds.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// streamByteBuckets are the streamed-upload size upper bounds in bytes:
// 4 KiB through 1 GiB, a power-of-16-ish ladder around the default
// chunk size and the default upload quota.
var streamByteBuckets = []float64{4 << 10, 64 << 10, 256 << 10, 1 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30}

// histogram is a fixed-bucket histogram with atomic counters over
// caller-chosen bounds (seconds, bytes, …). Observe is lock-free;
// writeProm renders the cumulative Prometheus form.
type histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1: the last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Int64 // in the native unit (nanoseconds, bytes, …)
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records v in the native unit of the rendered family (seconds,
// bytes); sumv is what accumulates into _sum — for latency histograms
// the integer nanoseconds, to keep the hot path free of float rounding.
func (h *histogram) observe(v float64, sumv int64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(sumv)
}

// Observe records one value in the histogram's native unit.
func (h *histogram) Observe(v float64) { h.observe(v, int64(v)) }

// ObserveDuration records a latency sample.
func (h *histogram) ObserveDuration(d time.Duration) { h.observe(d.Seconds(), int64(d)) }

// writeProm renders the family's cumulative buckets, sum, and count.
// labels is the rendered label set including braces ("{endpoint=\"x\"}"
// or ""); sumScale divides the raw sum into the rendered unit (1e9 for
// nanoseconds → seconds, 1 for bytes).
func (h *histogram) writeProm(w io.Writer, name, labels string, sumScale float64) {
	sep, close := "{", "}"
	if labels != "" {
		labels = labels[1 : len(labels)-1] // strip braces, re-joined below
		sep = "{" + labels + ","
	} else {
		labels = ""
	}
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=%q%s %d\n", name, sep, fmtFloat(ub), close, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"%s %d\n", name, sep, close, cum)
	lb := ""
	if labels != "" {
		lb = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, lb, fmtFloat(float64(h.sum.Load())/sumScale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, lb, h.count.Load())
}

// durSum is a cumulative duration/count pair (a Prometheus summary
// without quantiles), used for per-analysis engine durations.
type durSum struct {
	count    atomic.Uint64
	sumNanos atomic.Int64
}

func (d *durSum) Observe(dur time.Duration) {
	d.count.Add(1)
	d.sumNanos.Add(int64(dur))
}

// Metrics is the server's observability state: atomic request, error,
// cache, and singleflight counters, per-endpoint latency histograms,
// and per-analysis engine durations. Store and result-cache occupancy
// are read live at render time, so /metrics always reflects current
// state without the hot path maintaining gauges.
type Metrics struct {
	requests map[string]*atomic.Uint64
	errors   map[string]*atomic.Uint64
	latency  map[string]*histogram

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	coalesced   atomic.Uint64

	// promotions counts hot-tier misses served by decoding the durable
	// copy back into memory.
	promotions atomic.Uint64

	// streamBytes is the per-upload bytes-streamed histogram and
	// streamsInFlight the live gauge of open streamed uploads.
	streamBytes     *histogram
	streamsInFlight atomic.Int64

	// clusterProxied counts requests forwarded to an owner replica and
	// clusterLocal the cluster-routed requests this replica owned — the
	// fleet's routing split, by endpoint. A cluster of one serves every
	// request locally.
	clusterProxied map[string]*atomic.Uint64
	clusterLocal   map[string]*atomic.Uint64

	// Replicated-ownership counters: upload fan-out copies attempted and
	// failed, copies and tombstones pushed by the anti-entropy repair
	// loop, and the last repair scan's count of ids with at least one
	// owner missing its copy (or down). All stay zero unless replication
	// is above 1.
	replFanout          atomic.Uint64
	replFanoutFailures  atomic.Uint64
	replRepairCopies    atomic.Uint64
	replRepairTombs     atomic.Uint64
	replUnderReplicated atomic.Int64

	analysis map[string]*durSum
}

func newMetrics() *Metrics {
	m := &Metrics{
		requests:       make(map[string]*atomic.Uint64, len(endpoints)),
		errors:         make(map[string]*atomic.Uint64, len(endpoints)),
		latency:        make(map[string]*histogram, len(endpoints)),
		streamBytes:    newHistogram(streamByteBuckets),
		clusterProxied: make(map[string]*atomic.Uint64, len(clusterEndpoints)),
		clusterLocal:   make(map[string]*atomic.Uint64, len(clusterEndpoints)),
		analysis:       make(map[string]*durSum),
	}
	for _, ep := range endpoints {
		m.requests[ep] = &atomic.Uint64{}
		m.errors[ep] = &atomic.Uint64{}
		m.latency[ep] = newHistogram(latencyBuckets)
	}
	for _, ep := range clusterEndpoints {
		m.clusterProxied[ep] = &atomic.Uint64{}
		m.clusterLocal[ep] = &atomic.Uint64{}
	}
	for _, a := range engine.AllAnalyses() {
		m.analysis[a.String()] = &durSum{}
	}
	return m
}

// ObserveAnalysis records one completed engine analysis; it is the
// engine.WithObserver sink and may be called concurrently.
func (m *Metrics) ObserveAnalysis(name string, d time.Duration) {
	if s, ok := m.analysis[name]; ok {
		s.Observe(d)
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every metric family in Prometheus text
// exposition format. Families and label values are emitted in a fixed
// order, so the output is deterministic up to the counter values. disk
// may be nil (memory-only mode); the durable-tier families are then
// omitted entirely rather than rendered as zeroes. cl is never nil: a
// cluster of one renders its routing split and a single peer_up line.
func (m *Metrics) WritePrometheus(w io.Writer, store *Store, results *resultCache, disk *storage.Store, cl *cluster.Cluster) {
	fmt.Fprint(w, "# HELP memgazed_requests_total Requests received, by endpoint.\n# TYPE memgazed_requests_total counter\n")
	for _, ep := range endpoints {
		fmt.Fprintf(w, "memgazed_requests_total{endpoint=%q} %d\n", ep, m.requests[ep].Load())
	}
	fmt.Fprint(w, "# HELP memgazed_errors_total Requests answered with status >= 400, by endpoint.\n# TYPE memgazed_errors_total counter\n")
	for _, ep := range endpoints {
		fmt.Fprintf(w, "memgazed_errors_total{endpoint=%q} %d\n", ep, m.errors[ep].Load())
	}

	fmt.Fprint(w, "# HELP memgazed_request_duration_seconds Request latency, by endpoint.\n# TYPE memgazed_request_duration_seconds histogram\n")
	for _, ep := range endpoints {
		m.latency[ep].writeProm(w, "memgazed_request_duration_seconds",
			fmt.Sprintf("{endpoint=%q}", ep), float64(time.Second))
	}

	fmt.Fprint(w, "# HELP memgazed_stream_bytes Bytes received per streamed upload.\n# TYPE memgazed_stream_bytes histogram\n")
	m.streamBytes.writeProm(w, "memgazed_stream_bytes", "", 1)
	fmt.Fprint(w, "# HELP memgazed_streams_in_flight Streamed uploads currently open.\n# TYPE memgazed_streams_in_flight gauge\n")
	fmt.Fprintf(w, "memgazed_streams_in_flight %d\n", m.streamsInFlight.Load())

	fmt.Fprint(w, "# HELP memgazed_result_cache_hits_total Analyze requests, diff sides and diffs served wholly from the result cache.\n# TYPE memgazed_result_cache_hits_total counter\n")
	fmt.Fprintf(w, "memgazed_result_cache_hits_total %d\n", m.cacheHits.Load())
	fmt.Fprint(w, "# HELP memgazed_result_cache_misses_total Analyze requests, diff sides and diffs that missed at least one result-cache entry.\n# TYPE memgazed_result_cache_misses_total counter\n")
	fmt.Fprintf(w, "memgazed_result_cache_misses_total %d\n", m.cacheMisses.Load())
	fmt.Fprint(w, "# HELP memgazed_singleflight_coalesced_total Analyze requests, diff sides and diffs that joined an entry another request was computing.\n# TYPE memgazed_singleflight_coalesced_total counter\n")
	fmt.Fprintf(w, "memgazed_singleflight_coalesced_total %d\n", m.coalesced.Load())

	fmt.Fprint(w, "# HELP memgazed_store_traces Traces resident in the store.\n# TYPE memgazed_store_traces gauge\n")
	fmt.Fprintf(w, "memgazed_store_traces %d\n", store.Len())
	fmt.Fprint(w, "# HELP memgazed_store_bytes Encoded bytes resident in the store.\n# TYPE memgazed_store_bytes gauge\n")
	fmt.Fprintf(w, "memgazed_store_bytes %d\n", store.UsedBytes())
	fmt.Fprint(w, "# HELP memgazed_store_budget_bytes Store byte budget (0 = unbounded).\n# TYPE memgazed_store_budget_bytes gauge\n")
	fmt.Fprintf(w, "memgazed_store_budget_bytes %d\n", store.Budget())
	fmt.Fprint(w, "# HELP memgazed_store_evictions_total Traces evicted under the byte budget.\n# TYPE memgazed_store_evictions_total counter\n")
	fmt.Fprintf(w, "memgazed_store_evictions_total %d\n", store.Evictions())
	fmt.Fprint(w, "# HELP memgazed_result_cache_bytes Bytes charged to the result cache: values, keys and per-entry overhead.\n# TYPE memgazed_result_cache_bytes gauge\n")
	fmt.Fprintf(w, "memgazed_result_cache_bytes %d\n", results.UsedBytes())
	fmt.Fprint(w, "# HELP memgazed_result_cache_entries Entries resident in the result cache: one per cached analysis fragment or diff.\n# TYPE memgazed_result_cache_entries gauge\n")
	fmt.Fprintf(w, "memgazed_result_cache_entries %d\n", results.Len())

	if disk != nil {
		st := disk.Stats()
		fmt.Fprint(w, "# HELP memgazed_disk_promotions_total Hot-tier misses served by promoting the durable copy.\n# TYPE memgazed_disk_promotions_total counter\n")
		fmt.Fprintf(w, "memgazed_disk_promotions_total %d\n", m.promotions.Load())
		fmt.Fprint(w, "# HELP memgazed_disk_segments Segment files in the durable store.\n# TYPE memgazed_disk_segments gauge\n")
		fmt.Fprintf(w, "memgazed_disk_segments %d\n", st.Segments)
		fmt.Fprint(w, "# HELP memgazed_disk_traces Live traces in the durable store.\n# TYPE memgazed_disk_traces gauge\n")
		fmt.Fprintf(w, "memgazed_disk_traces %d\n", st.LiveTraces)
		fmt.Fprint(w, "# HELP memgazed_disk_tombstones Durably deleted trace keys awaiting compaction.\n# TYPE memgazed_disk_tombstones gauge\n")
		fmt.Fprintf(w, "memgazed_disk_tombstones %d\n", st.Tombstones)
		fmt.Fprint(w, "# HELP memgazed_disk_live_bytes Payload bytes of live traces on disk.\n# TYPE memgazed_disk_live_bytes gauge\n")
		fmt.Fprintf(w, "memgazed_disk_live_bytes %d\n", st.LiveBytes)
		fmt.Fprint(w, "# HELP memgazed_disk_dead_bytes Payload bytes superseded or tombstoned, reclaimable by compaction.\n# TYPE memgazed_disk_dead_bytes gauge\n")
		fmt.Fprintf(w, "memgazed_disk_dead_bytes %d\n", st.DeadBytes)
		fmt.Fprint(w, "# HELP memgazed_disk_compactions_total Segments rewritten by the compactor.\n# TYPE memgazed_disk_compactions_total counter\n")
		fmt.Fprintf(w, "memgazed_disk_compactions_total %d\n", st.Compactions)
		fmt.Fprint(w, "# HELP memgazed_disk_recovery_live_records Records indexed by the boot scan.\n# TYPE memgazed_disk_recovery_live_records gauge\n")
		fmt.Fprintf(w, "memgazed_disk_recovery_live_records %d\n", st.Recovery.LiveRecords)
		fmt.Fprint(w, "# HELP memgazed_disk_recovery_truncated_bytes Bytes cut off a torn segment tail at boot.\n# TYPE memgazed_disk_recovery_truncated_bytes gauge\n")
		fmt.Fprintf(w, "memgazed_disk_recovery_truncated_bytes %d\n", st.Recovery.TruncatedBytes)
		fmt.Fprint(w, "# HELP memgazed_disk_recovery_corrupt_records Records dropped at boot to CRC or framing failure.\n# TYPE memgazed_disk_recovery_corrupt_records gauge\n")
		fmt.Fprintf(w, "memgazed_disk_recovery_corrupt_records %d\n", st.Recovery.CorruptRecords)
		fmt.Fprint(w, "# HELP memgazed_disk_recovery_duration_seconds Boot scan duration.\n# TYPE memgazed_disk_recovery_duration_seconds gauge\n")
		fmt.Fprintf(w, "memgazed_disk_recovery_duration_seconds %s\n", fmtFloat(st.Recovery.Duration.Seconds()))
	}

	fmt.Fprint(w, "# HELP memgazed_cluster_proxied_requests_total Requests proxied to the owner replica, by endpoint.\n# TYPE memgazed_cluster_proxied_requests_total counter\n")
	for _, ep := range clusterEndpoints {
		fmt.Fprintf(w, "memgazed_cluster_proxied_requests_total{endpoint=%q} %d\n", ep, m.clusterProxied[ep].Load())
	}
	fmt.Fprint(w, "# HELP memgazed_cluster_local_requests_total Cluster-routed requests served by this replica, by endpoint.\n# TYPE memgazed_cluster_local_requests_total counter\n")
	for _, ep := range clusterEndpoints {
		fmt.Fprintf(w, "memgazed_cluster_local_requests_total{endpoint=%q} %d\n", ep, m.clusterLocal[ep].Load())
	}
	fmt.Fprint(w, "# HELP memgazed_cluster_replication_fanout_total Upload fan-out copies attempted to secondary owners.\n# TYPE memgazed_cluster_replication_fanout_total counter\n")
	fmt.Fprintf(w, "memgazed_cluster_replication_fanout_total %d\n", m.replFanout.Load())
	fmt.Fprint(w, "# HELP memgazed_cluster_replication_fanout_failures_total Upload fan-out copies that failed (healed later by repair).\n# TYPE memgazed_cluster_replication_fanout_failures_total counter\n")
	fmt.Fprintf(w, "memgazed_cluster_replication_fanout_failures_total %d\n", m.replFanoutFailures.Load())
	fmt.Fprint(w, "# HELP memgazed_cluster_replication_repair_copies_total Trace copies pushed to under-replicated owners by the repair loop.\n# TYPE memgazed_cluster_replication_repair_copies_total counter\n")
	fmt.Fprintf(w, "memgazed_cluster_replication_repair_copies_total %d\n", m.replRepairCopies.Load())
	fmt.Fprint(w, "# HELP memgazed_cluster_replication_repair_tombstones_total Tombstones propagated between owners by the repair loop.\n# TYPE memgazed_cluster_replication_repair_tombstones_total counter\n")
	fmt.Fprintf(w, "memgazed_cluster_replication_repair_tombstones_total %d\n", m.replRepairTombs.Load())
	fmt.Fprint(w, "# HELP memgazed_cluster_replication_underreplicated Ids missing at least one owner copy at the last repair scan.\n# TYPE memgazed_cluster_replication_underreplicated gauge\n")
	fmt.Fprintf(w, "memgazed_cluster_replication_underreplicated %d\n", m.replUnderReplicated.Load())
	st := cl.Status()
	fmt.Fprint(w, "# HELP memgazed_cluster_peer_up Peer liveness from the readyz prober (1 = serving).\n# TYPE memgazed_cluster_peer_up gauge\n")
	for _, p := range st {
		up := 0
		if p.Up {
			up = 1
		}
		fmt.Fprintf(w, "memgazed_cluster_peer_up{peer=%q} %d\n", p.Name, up)
	}
	fmt.Fprint(w, "# HELP memgazed_cluster_probe_latency_seconds Last readyz probe round-trip per peer.\n# TYPE memgazed_cluster_probe_latency_seconds gauge\n")
	for _, p := range st {
		if p.Self {
			continue // self is never probed
		}
		fmt.Fprintf(w, "memgazed_cluster_probe_latency_seconds{peer=%q} %s\n", p.Name, fmtFloat(p.ProbeLatency.Seconds()))
	}

	fmt.Fprint(w, "# HELP memgazed_analysis_duration_seconds Engine time per completed analysis.\n# TYPE memgazed_analysis_duration_seconds summary\n")
	names := make([]string, 0, len(m.analysis))
	for name := range m.analysis {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := m.analysis[name]
		fmt.Fprintf(w, "memgazed_analysis_duration_seconds_sum{analysis=%q} %s\n", name, fmtFloat(time.Duration(s.sumNanos.Load()).Seconds()))
		fmt.Fprintf(w, "memgazed_analysis_duration_seconds_count{analysis=%q} %d\n", name, s.count.Load())
	}
}
