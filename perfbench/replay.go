package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/memgaze/memgaze-go/internal/cluster"
	"github.com/memgaze/memgaze-go/internal/diff"
	"github.com/memgaze/memgaze-go/internal/engine"
	"github.com/memgaze/memgaze-go/internal/pt"
	"github.com/memgaze/memgaze-go/internal/server"
	"github.com/memgaze/memgaze-go/internal/storage"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// analysisMetrics are the engine analyses with a per-layer metric.
var analysisMetrics = []string{
	"functions", "lines", "windows", "working-set", "reuse-intervals", "mrc",
	"confidence", "interval-tree", "zoom", "heatmap", "roi",
}

// replicaState is one memgazed's tiers, rebuilt in-process: the
// durable segment store and the hot in-memory store in front of it.
type replicaState struct {
	disk *storage.Store
	hot  *server.Store
	dir  string
}

// replayer re-executes a run's request sequence in-process, calling
// each layer's public functions in the order memgazed calls them and
// recording a span around each call. Cache hits and misses follow what
// memgazed answered in the timed run.
type replayer struct {
	log    io.Writer
	wl     *workloadDef
	seed   uint64
	corpus []*capture
	dep    *deployment
	work   string
	reqs   []*request
	e2e    *e2eStats
	hop    float64 // live proxy-hop probe, ms (fleet)
	budget time.Duration

	tr       *tracer
	order    []*request // reqs by start time; a span's Req indexes it
	replicas []*replicaState
	peers    []string // normalized advertise addresses (fleet)
	ids      []string // corpus ids

	results  []*resultSim      // per replica
	reports  map[string][]byte // default-suite reports by key, for diff sides
	sizes    map[string]int64  // every report's size by key, for cache puts
	segBase  int64             // segment bytes before the replayed requests
	decode   pt.DecodeStats
	putBytes int64 // encoded bytes handed to storage.Store.Put
	hotGets  int
	hotHits  int
	reportKB []float64
	proxied  int
	keyed    int
	replayed int
}

func (rp *replayer) run() (map[string]metric, error) {
	rp.tr = newTracer()
	rp.ids = rp.dep.ids
	rp.reports = map[string][]byte{}
	rp.sizes = map[string]int64{}
	for _, d := range rp.dep.daemons {
		rp.peers = append(rp.peers, cluster.Normalize(d.addr))
	}

	// Set-up: the corpus generation again, under spans.
	if _, err := genCorpus(rp.seed, rp.tr); err != nil {
		return nil, err
	}
	if err := rp.openReplicas(); err != nil {
		return nil, err
	}
	defer func() {
		for _, r := range rp.replicas {
			r.disk.Close()
		}
	}()

	rp.order = slices.Clone(rp.reqs)
	sort.SliceStable(rp.order, func(i, j int) bool { return rp.order[i].start < rp.order[j].start })
	start := time.Now()
	for rid, q := range rp.order {
		if time.Since(start) > rp.budget {
			break
		}
		if !q.ok() {
			continue
		}
		if err := rp.replay(rid, q); err != nil {
			return nil, fmt.Errorf("replaying %s request %d: %w", q.metricOp(), rid, err)
		}
		rp.replayed++
	}
	fmt.Fprintf(rp.log, "# replay requests=%d of %d spans=%d in %.1fs\n", rp.replayed, len(rp.order), len(rp.tr.spans), since(start))
	return rp.metrics(), nil
}

// openReplicas builds each replica's tiers. The analyze workload
// recovers the data directory memgazed left behind (its corpus); the
// others start empty, and the fleet preloads the corpus into the
// owners, untimed.
func (rp *replayer) openReplicas() error {
	for i := range rp.dep.daemons {
		dir := filepath.Join(rp.work, fmt.Sprintf("replay%d", i))
		span := "storage.open"
		if rp.wl.restart {
			dir, span = rp.dep.dirs[i], "storage.recover"
		}
		var disk *storage.Store
		var err error
		rp.tr.do(span, -1, -1, func() { disk, err = storage.Open(storage.Config{Dir: dir}) })
		if err != nil {
			return err
		}
		rp.replicas = append(rp.replicas, &replicaState{disk: disk, hot: server.NewStore(rp.wl.storeBudget), dir: dir})
		rp.results = append(rp.results, newResultSim(resultCacheBytes))
	}
	if rp.wl.preload && !rp.wl.restart {
		// Untraced, like the end-to-end set-up it mirrors.
		tr := rp.tr
		rp.tr = nil
		defer func() { rp.tr = tr }()
		for ci, c := range rp.corpus {
			t, _, err := c.build(0)
			if err != nil {
				return err
			}
			id, size := t.HashAndSize()
			if id != rp.ids[ci] {
				return fmt.Errorf("corpus %s: replay id %s, memgazed %s", c.name, id, rp.ids[ci])
			}
			for _, o := range rp.owners(id) {
				if err := rp.store(o, id, t, size, -1, -1); err != nil {
					return err
				}
			}
		}
		rp.putBytes = 0
	}
	rp.segBase = rp.segmentBytes()
	return nil
}

// owners returns the replica indexes owning id, in rendezvous order.
func (rp *replayer) owners(id string) []int {
	if len(rp.peers) < 2 {
		return []int{0}
	}
	var out []int
	for _, o := range cluster.Owners(rp.peers, id, 2) {
		out = append(out, slices.Index(rp.peers, o))
	}
	return out
}

// owner picks the replica that serves a read arriving at vantage: the
// vantage itself when it owns the id, else its first owner.
func (rp *replayer) owner(vantage int, id string) (int, bool) {
	owners := rp.owners(id)
	if slices.Contains(owners, vantage) {
		return vantage, false
	}
	return owners[0], true
}

// store is memgazed's storeTrace on replica o: metadata, durable put,
// hot put.
func (rp *replayer) store(o int, id string, t *trace.Trace, size int64, parent, rid int) error {
	r := rp.replicas[o]
	var m storage.Meta
	rp.tr.do("server.meta", parent, rid, func() {
		m = storage.Meta{
			Module: t.Module, Mode: t.Mode, Samples: t.NumSamples(), Records: t.NumRecords(),
			Rho: t.Rho(), Kappa: t.Kappa(), Uploaded: time.Now().UTC(),
		}
	})
	var err error
	rp.tr.do("storage.put", parent, rid, func() { _, err = r.disk.Put(id, m, size, t) })
	if err != nil {
		return err
	}
	rp.putBytes += size
	rp.tr.do("server.hot_put", parent, rid, func() { r.hot.Put(id, t, size, m.Uploaded) })
	return nil
}

// fetch is memgazed's two-tier read on replica o: hot tier, else the
// disk copy decoded and promoted.
func (rp *replayer) fetch(o int, id string, parent, rid int) (*trace.Trace, error) {
	r := rp.replicas[o]
	var t *trace.Trace
	var ok bool
	rp.tr.do("server.hot_get", parent, rid, func() { t, _, ok = r.hot.Get(id) })
	rp.hotGets++
	if ok {
		rp.hotHits++
		return t, nil
	}
	var b []byte
	var m storage.Meta
	var err error
	rp.tr.do("storage.get", parent, rid, func() { b, m, err = r.disk.Get(id) })
	if err != nil {
		return nil, err
	}
	rp.tr.do("trace.decode", parent, rid, func() { t, err = trace.Decode(b) })
	if err != nil {
		return nil, err
	}
	rp.tr.do("server.promote", parent, rid, func() { r.hot.Put(id, t, int64(len(b)), m.Uploaded) })
	return t, nil
}

// report is memgazed's analyzedBytes on replica o: the marshalled
// report of corpus trace ci under analysisSets[set] and its size, free
// on a result cache hit, an engine run on a miss. hit, when non-nil,
// overrides the modelled cache with the answer the e2e run observed.
// Only default-suite reports keep their bytes (diffs decode them); a
// hit on another set returns nil bytes and the size, 0 if the replay
// never built that report.
func (rp *replayer) report(o int, t *trace.Trace, ci, set int, hit *bool, parent, rid int) ([]byte, int64, error) {
	key := (&request{op: opAnalyze, capture: ci, set: set}).key()
	cached := rp.results[o].get(key)
	if hit != nil {
		cached = *hit
	}
	if b, ok := rp.reports[key]; cached && (ok || set != 0) {
		return b, rp.sizes[key], nil
	}
	b, err := rp.analyze(t, set, parent, rid)
	if err != nil {
		return nil, 0, err
	}
	size := int64(len(b))
	rp.results[o].put(key, size)
	rp.sizes[key] = size
	if set == 0 {
		rp.reports[key] = b
	}
	return b, size, nil
}

// analyze is memgazed's runAnalysis: engine run with per-analysis
// observer, then marshal.
func (rp *replayer) analyze(t *trace.Trace, set, parent, rid int) ([]byte, error) {
	run := rp.tr.begin("engine.run", parent, rid)
	opts := append(analysisOptions(set), engine.WithObserver(func(a engine.Analysis, d time.Duration) {
		rp.tr.record("analysis."+a.String(), d, run, rid)
	}))
	rep, err := engine.New(t, opts...).Run(context.Background())
	rp.tr.end(run)
	if err != nil {
		return nil, err
	}
	var b []byte
	rp.tr.do("engine.marshal", parent, rid, func() { b, err = json.Marshal(rep) })
	rp.reportKB = append(rp.reportKB, float64(len(b))/1024)
	return b, err
}

// replay re-executes one successful request of the timed run the way
// memgazed served it, as request rid.
func (rp *replayer) replay(rid int, q *request) error {
	op := q.metricOp()
	var body bytes.Buffer
	if q.op == opStream || q.op == opUpload {
		if err := rp.corpus[q.capture].body(q.variant, &body); err != nil {
			return err
		}
	}
	root := rp.tr.begin(op, -1, rid)
	defer rp.tr.end(root)
	ctx := context.Background()

	switch q.op {
	case opStream:
		rp.keyed++
		type window struct {
			idx int
			s   *trace.Sample
		}
		var mu sync.Mutex
		var windows []window
		var t *trace.Trace
		var ds pt.DecodeStats
		var err error
		rp.tr.do("pt.stream_build", root, rid, func() {
			t, ds, err = pt.BuildCaptureStream(ctx, bytes.NewReader(body.Bytes()),
				pt.WithFaultPolicy(pt.FaultResync),
				pt.WithSampleSink(func(idx int, s *trace.Sample) {
					mu.Lock()
					windows = append(windows, window{idx, s})
					mu.Unlock()
				}))
		})
		if err != nil {
			return err
		}
		rp.decode.Add(ds)
		sort.Slice(windows, func(i, j int) bool { return windows[i].idx < windows[j].idx })
		rp.tr.do("engine.stream_accum", root, rid, func() {
			acc := engine.NewStreamAccum(0)
			for _, w := range windows {
				acc.AddSample(w.idx, w.s)
			}
		})
		var id string
		var size int64
		rp.tr.do("trace.hash", root, rid, func() {
			h := trace.NewHasher()
			t.Write(h)
			id, size = h.Sum()
		})
		if id != q.id {
			return fmt.Errorf("replayed id %s, memgazed answered %s", id, q.id)
		}
		return rp.store(0, id, t, size, root, rid)

	case opUpload:
		rp.keyed++
		var t *trace.Trace
		var ds pt.DecodeStats
		var err error
		rp.tr.do("pt.build", root, rid, func() {
			var cp *pt.Capture
			if cp, err = pt.ReadCapture(bytes.NewReader(body.Bytes())); err == nil {
				t, ds, err = cp.NewBuilder(pt.WithFaultPolicy(pt.FaultResync)).Build(ctx)
			}
		})
		if err != nil {
			return err
		}
		rp.decode.Add(ds)
		var id string
		var size int64
		rp.tr.do("trace.hash", root, rid, func() { id, size = t.HashAndSize() })
		var owners []int
		rp.tr.do("cluster.owners", root, rid, func() { owners = rp.owners(id) })
		remotes := owners
		if slices.Contains(owners, q.vantage) {
			if err := rp.store(q.vantage, id, t, size, root, rid); err != nil {
				return err
			}
			remotes = slices.DeleteFunc(slices.Clone(owners), func(o int) bool { return o == q.vantage })
		} else {
			rp.proxied++
		}
		if len(remotes) == 0 {
			return nil
		}
		var enc []byte
		rp.tr.do("trace.encode", root, rid, func() { enc, err = t.Encode() })
		if err != nil {
			return err
		}
		for _, o := range remotes {
			var t2 *trace.Trace
			rp.tr.do("trace.decode", root, rid, func() { t2, err = trace.Decode(enc) })
			if err != nil {
				return err
			}
			var id2 string
			var size2 int64
			rp.tr.do("trace.hash", root, rid, func() { id2, size2 = t2.HashAndSize() })
			if err := rp.store(o, id2, t2, size2, root, rid); err != nil {
				return err
			}
		}
		return nil

	case opAnalyze:
		rp.keyed++
		id := rp.ids[q.capture]
		o, proxied := rp.owner(q.vantage, id)
		if proxied {
			rp.proxied++
			if q.hit {
				rp.results[q.vantage].get(q.key())
				return nil // the vantage's own result cache answered
			}
		}
		t, err := rp.fetch(o, id, root, rid)
		if err != nil {
			return err
		}
		// At the owner the e2e answer says whether the cache hit; behind
		// a proxy hop only the owner's modelled cache can tell.
		var hit *bool
		if !proxied {
			hit = &q.hit
		}
		_, size, err := rp.report(o, t, q.capture, q.set, hit, root, rid)
		if err == nil && proxied && size > 0 {
			rp.results[q.vantage].put(q.key(), size)
		}
		return err

	case opDiff:
		var ts [2]*trace.Trace
		for i, ci := range []int{q.capture, q.traceB} {
			var err error
			if ts[i], err = rp.fetch(0, rp.ids[ci], root, rid); err != nil {
				return err
			}
		}
		if q.hit {
			rp.results[0].get(q.key())
			return nil
		}
		var reps [2]engine.Report
		for i, ci := range []int{q.capture, q.traceB} {
			b, _, err := rp.report(0, ts[i], ci, 0, nil, root, rid)
			if err != nil {
				return err
			}
			rp.tr.do("diff.decode", root, rid, func() { err = json.Unmarshal(b, &reps[i]) })
			if err != nil {
				return err
			}
		}
		var d *diff.DiffReport
		rp.tr.do("diff.diff", root, rid, func() { d = diff.Diff(&reps[0], &reps[1], diff.WithTopK(0)) })
		var b []byte
		var err error
		rp.tr.do("diff.marshal", root, rid, func() { b, err = json.Marshal(d) })
		rp.results[0].put(q.key(), int64(len(b)))
		return err

	case opFetch:
		rp.keyed++
		id := rp.ids[q.capture]
		o, proxied := rp.owner(q.vantage, id)
		if proxied {
			rp.proxied++
		}
		t, err := rp.fetch(o, id, root, rid)
		if err != nil {
			return err
		}
		rp.tr.do("trace.encode", root, rid, func() { _, err = t.WriteTo(io.Discard) })
		return err
	}
	return nil
}

// metrics reduces the spans to the per-layer metrics BENCHMARK.json
// names. A layer the workload never calls reads 0.
func (rp *replayer) metrics() map[string]metric {
	self := rp.tr.selfTimes()
	per := rp.tr.perRequest(self)
	out := map[string]metric{}
	msm := func(name string, v float64) { out[name] = metric{v, "ms"} }

	// Set-up spans (request -1) sum over one set-up.
	for _, name := range []string{"workloads.build", "vm.collect", "pt.capture_write", "storage.recover"} {
		msm(name+"_ms", ms(per[name][-1]))
	}
	// Request spans: the median over requests that made the call, of
	// the self time summed within each request. engine.run is the one
	// inclusive figure (the whole Run call); its analyses report apart.
	med := func(byReq map[int]time.Duration) float64 {
		var xs []float64
		for rid, d := range byReq {
			if rid >= 0 {
				xs = append(xs, ms(d))
			}
		}
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	for _, name := range []string{
		"pt.stream_build", "pt.build", "engine.stream_accum", "trace.hash", "storage.put",
		"storage.get", "trace.decode", "server.promote", "engine.marshal", "diff.diff",
	} {
		msm(name+"_ms", med(per[name]))
	}
	for _, a := range analysisMetrics {
		msm("analysis."+a+"_ms", med(per["analysis."+a]))
	}
	runs := map[int]time.Duration{}
	for _, s := range rp.tr.spans {
		if s.Name == "engine.run" {
			runs[s.Req] += time.Duration(s.End - s.Start)
		}
	}
	msm("engine.run_ms", med(runs))

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var windows []float64
	for _, c := range rp.corpus {
		windows = append(windows, float64(c.windows))
	}
	out["pt.windows_per_capture"] = metric{median(windows), "count"}
	out["pt.records_per_event"] = metric{ratio(float64(rp.decode.Records), float64(rp.decode.Events)), "ratio"}

	var evictions uint64
	for _, r := range rp.replicas {
		evictions += r.hot.Evictions()
	}
	written := rp.segmentBytes() - rp.segBase
	out["storage.write_amp"] = metric{ratio(float64(written), float64(rp.putBytes)), "ratio"}
	out["server.hot_hit_ratio"] = metric{ratio(float64(rp.hotHits), float64(rp.hotGets)), "ratio"}
	out["server.hot_evictions"] = metric{float64(evictions), "count"}
	kb := 0.0
	if len(rp.reportKB) > 0 {
		kb = median(rp.reportKB)
	}
	out["engine.report_kb"] = metric{kb, "KB"}
	out["server.cache_hit_ratio"] = metric{ratio(float64(rp.e2e.hits), float64(rp.e2e.answered)), "ratio"}
	out["cluster.proxied_share"] = metric{ratio(float64(rp.proxied), float64(rp.keyed)), "ratio"}
	msm("cluster.proxy_hop_ms", rp.hop)

	// Unattributed: the e2e median of each op minus the median time its
	// replayed requests spent inside layer spans, both taken over the
	// same populations (metricOps).
	covered := map[string][]float64{}
	for i, s := range rp.tr.spans {
		if s.Parent == -1 && s.Req >= 0 {
			for _, op := range rp.order[s.Req].metricOps() {
				covered[op] = append(covered[op], ms(time.Duration(s.End-s.Start)-self[i]))
			}
		}
	}
	for _, op := range []string{"upload", "analyze", "cached", "diff", "fetch"} {
		v := 0.0
		if e2e := rp.e2e.byOp[op]; len(e2e) > 0 && len(covered[op]) > 0 {
			v = ms(quantile(e2e, 0.5)) - median(covered[op])
		}
		msm("server.unattributed_ms."+op, v)
	}
	out["bench.span_overhead_ns"] = metric{float64(spanCost(100_000).Nanoseconds()), "ns"}
	out["bench.replayed_requests"] = metric{float64(rp.replayed), "count"}
	return out
}

// segmentBytes is the size of every replica's segment files, synced.
func (rp *replayer) segmentBytes() int64 {
	var n int64
	for _, r := range rp.replicas {
		r.disk.Sync()
		segs, _ := filepath.Glob(filepath.Join(r.dir, "seg-*.mgseg"))
		for _, p := range segs {
			if st, err := os.Stat(p); err == nil {
				n += st.Size()
			}
		}
	}
	return n
}

// resultSim models memgazed's result cache on one replica — a
// byte-bounded LRU of report keys — so the replay knows which reports
// an owner behind a proxy hop had cached.
type resultSim struct {
	budget, used int64
	lru          *list.List // of *simEntry, front = most recent
	entries      map[string]*list.Element
}

type simEntry struct {
	key  string
	size int64
}

func newResultSim(budget int64) *resultSim {
	return &resultSim{budget: budget, lru: list.New(), entries: map[string]*list.Element{}}
}

func (c *resultSim) get(key string) bool {
	el, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(el)
	}
	return ok
}

func (c *resultSim) put(key string, size int64) {
	if size > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.used += size - el.Value.(*simEntry).size
		el.Value.(*simEntry).size = size
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&simEntry{key, size})
		c.used += size
	}
	for c.used > c.budget {
		e := c.lru.Remove(c.lru.Back()).(*simEntry)
		delete(c.entries, e.key)
		c.used -= e.size
	}
}

// probeProxyHop times GET /v1/traces/{id} — a metadata read that is
// always answered by an owner — at an owner and at the non-owner
// vantage of the same ids, alternating, n rounds; the hop is the
// difference of the medians.
func probeProxyHop(dep *deployment, n int) (float64, error) {
	var peers []string
	for _, d := range dep.daemons {
		peers = append(peers, cluster.Normalize(d.addr))
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	get := func(d *daemon, id string) (time.Duration, error) {
		start := time.Now()
		resp, err := hc.Get(d.url() + "/v1/traces/" + id)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("probe %s: %s", id, resp.Status)
		}
		return time.Since(start), err
	}
	var local, remote []time.Duration
	for i := 0; i < n; i++ {
		id := dep.ids[i%len(dep.ids)]
		owners := cluster.Owners(peers, id, 2)
		var own, other *daemon
		for j, p := range peers {
			if slices.Contains(owners, p) {
				if own == nil {
					own = dep.daemons[j]
				}
			} else {
				other = dep.daemons[j]
			}
		}
		if other == nil {
			continue
		}
		for _, v := range []struct {
			d   *daemon
			out *[]time.Duration
		}{{own, &local}, {other, &remote}} {
			lat, err := get(v.d, id)
			if err != nil {
				return 0, err
			}
			*v.out = append(*v.out, lat)
		}
	}
	if len(local) == 0 {
		return 0, nil
	}
	return ms(quantile(remote, 0.5)) - ms(quantile(local, 0.5)), nil
}
