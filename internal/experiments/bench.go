package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/cluster"
	"github.com/memgaze/memgaze-go/internal/core"
	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/instrument"
	"github.com/memgaze/memgaze-go/internal/pt"
	"github.com/memgaze/memgaze-go/internal/report"
	"github.com/memgaze/memgaze-go/internal/server"
	"github.com/memgaze/memgaze-go/internal/storage"
	"github.com/memgaze/memgaze-go/internal/trace"
	"github.com/memgaze/memgaze-go/internal/workloads/minivite"
)

// BenchMetric is one gated benchmark: a name, its best-of-reps
// nanoseconds per operation, and the allocation behaviour of that
// fastest run — so GC-pressure regressions gate exactly like latency
// ones. The CI gate compares these against a committed baseline and
// fails on regressions beyond a threshold; the alloc fields are
// omitted when zero so older baselines parse (and simply do not gate
// them).
type BenchMetric struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64  `json:"bytes_per_op,omitempty"`
}

// StreamIngestPoint is one capture size of the streamed-vs-buffered
// ingest comparison. Overhead is the peak heap above what the built
// trace itself retains — the transient cost of ingestion. The streamed
// path's overhead is bounded by O(chunk × workers) regardless of
// capture size; the buffered path's grows with the capture (it holds
// the whole serialisation in memory before decoding).
type StreamIngestPoint struct {
	Scale            int   `json:"scale"`
	CaptureBytes     int64 `json:"capture_bytes"`
	Records          int   `json:"records"`
	StreamedNs       int64 `json:"streamed_ns"`
	BufferedNs       int64 `json:"buffered_ns"`
	StreamedOverhead int64 `json:"streamed_overhead_bytes"`
	BufferedOverhead int64 `json:"buffered_overhead_bytes"`
}

// BenchResult is the machine-readable benchmark report the CI
// regression gate consumes (committed as BENCH_<N>.json).
type BenchResult struct {
	GoVersion  string              `json:"go_version"`
	ChunkBytes int                 `json:"chunk_bytes"`
	Workers    int                 `json:"workers"`
	Gate       []BenchMetric       `json:"gate"`
	Stream     []StreamIngestPoint `json:"stream"`
	// EncodedV2Bytes and EncodedV3Bytes compare the legacy row wire
	// format with the columnar delta+varint v3 format on the same O0
	// miniVite trace — the frame-chatter-heavy case §III-B's
	// compression argument targets. v3 must not be larger.
	EncodedV2Bytes int64  `json:"encoded_v2_bytes,omitempty"`
	EncodedV3Bytes int64  `json:"encoded_v3_bytes,omitempty"`
	Text           string `json:"-"`
}

// benchTrace synthesises a deterministic trace for the serve benchmark.
func benchTrace(samples, recs int) *trace.Trace {
	rng := rand.New(rand.NewSource(17))
	tr := &trace.Trace{Module: "bench", Mode: "sampled", Period: 10_000,
		TotalLoads: uint64(samples) * 10_000}
	for s := 0; s < samples; s++ {
		smp := &trace.Sample{Seq: s, TriggerLoads: uint64(s+1) * 10_000}
		for i := 0; i < recs; i++ {
			smp.Records = append(smp.Records, trace.Record{
				TS: uint64(s*recs+i) * 3, IP: 0x401000 + uint64(rng.Intn(64))*8,
				Addr:  0x2000_0000 + uint64(rng.Intn(1<<12))*64,
				Class: dataflow.Class(rng.Intn(3)), Proc: "f", Line: int32(rng.Intn(20)),
			})
		}
		tr.AppendSample(smp)
	}
	return tr
}

// benchCapture drives a collector for the requested loads and returns
// the serialised capture.
func benchCapture(loads int) ([]byte, error) {
	notes := &instrument.Annotations{
		Module:   "bench",
		Loads:    map[uint64]*instrument.LoadNote{},
		PTWrites: map[uint64]*instrument.PTWNote{},
		AddrMap:  map[uint64]uint64{},
	}
	for i := 0; i < 8; i++ {
		ptw := 0x100 + uint64(i)*0x10
		load := ptw + 5
		notes.PTWrites[ptw] = &instrument.PTWNote{PTWAddr: ptw, LoadAddr: load,
			Operand: instrument.OpndBase, NumOperands: 1}
		notes.Loads[load] = &instrument.LoadNote{LoadAddr: load, Proc: "f",
			Line: int32(i), Class: dataflow.Strided, Stride: 8, Instrumented: true}
	}
	col := pt.NewCollector(pt.Config{Mode: pt.ModeContinuous, Period: 500, BufBytes: 8 << 10})
	ts := uint64(0)
	for i := 0; i < loads; i++ {
		ts += 7
		col.PTWrite(0x100+uint64(i%8)*0x10, 0x2000_0000+uint64(i)*8, ts)
		col.OnLoad(ts)
	}
	cp, err := col.Capture(notes)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// opStats is one benchmark measurement: wall-clock nanoseconds plus
// the heap allocation count and bytes of the same run.
type opStats struct {
	Ns, Allocs, Bytes int64
}

// per divides every statistic by the iteration count, turning a
// whole-run measurement into a per-operation one.
func (o opStats) per(iters int) opStats {
	n := int64(iters)
	return opStats{Ns: o.Ns / n, Allocs: o.Allocs / n, Bytes: o.Bytes / n}
}

// bestOf runs fn reps times and returns the fastest wall-clock run —
// the stable statistic for a regression gate (medians drift with
// scheduler noise; minima track the machine's capability) — along with
// that run's allocation count and bytes, read from the runtime's
// cumulative counters around the call.
func bestOf(reps int, fn func() error) (opStats, error) {
	var best opStats
	var before, after runtime.MemStats
	for r := 0; r < reps; r++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		if err := fn(); err != nil {
			return opStats{}, err
		}
		d := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&after)
		if best.Ns == 0 || d < best.Ns {
			best = opStats{Ns: d,
				Allocs: int64(after.Mallocs - before.Mallocs),
				Bytes:  int64(after.TotalAlloc - before.TotalAlloc)}
		}
	}
	return best, nil
}

// measurePeak runs fn and reports the transient ingestion overhead:
// peak heap minus what the run's output keeps alive. fn receives a
// sample callback it must call at its own high-water points (after
// buffering, every few decoded windows) — deterministic in-line
// sampling that works on one CPU, where a polling goroutine starves
// behind a busy decode loop. GC is pinned aggressive for the duration
// so HeapAlloc tracks the live set instead of accumulated garbage: the
// number answers "how much memory did ingestion need", not "how much
// did it allocate". Callers wanting wall-clock time must measure a
// separate run with a no-op sample; the forced GCs here distort
// throughput.
func measurePeak(fn func(sample func()) (any, error)) (overhead int64, err error) {
	old := debug.SetGCPercent(10)
	defer debug.SetGCPercent(old)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peak := ms.HeapAlloc
	var mu sync.Mutex
	sample := func() {
		var p runtime.MemStats
		runtime.ReadMemStats(&p)
		mu.Lock()
		if p.HeapAlloc > peak {
			peak = p.HeapAlloc
		}
		mu.Unlock()
	}
	out, err := fn(sample)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mu.Lock()
	overhead = int64(peak) - int64(ms.HeapAlloc)
	mu.Unlock()
	if overhead < 0 {
		overhead = 0
	}
	// Keep the run's product (the built trace) alive through the final
	// GC above: without this the compiler may mark it dead the moment
	// fn returns, the GC collects it, and the "retained" baseline reads
	// near zero — inflating overhead by the whole output size.
	runtime.KeepAlive(out)
	return overhead, err
}

// serveWarm measures the result-cache repeat path: one upload, one
// priming analyze, then iters cached analyzes; returns ns per analyze.
func serveWarm(iters int) (opStats, error) {
	s, err := server.New(server.Config{})
	if err != nil {
		return opStats{}, err
	}
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	enc, err := benchTrace(16, 200).Encode()
	if err != nil {
		return opStats{}, err
	}
	resp, err := http.Post(hs.URL+"/v1/traces", server.ContentTypeTrace, bytes.NewReader(enc))
	if err != nil {
		return opStats{}, err
	}
	var info server.TraceInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		return opStats{}, err
	}
	analyze := func() error {
		resp, err := http.Post(hs.URL+"/v1/traces/"+info.ID+"/analyze", "application/json",
			strings.NewReader(`{"analyses":["functions","mrc"]}`))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("analyze: status %d", resp.StatusCode)
		}
		return nil
	}
	if err := analyze(); err != nil { // prime the cache
		return opStats{}, err
	}
	total, err := bestOf(3, func() error {
		for i := 0; i < iters; i++ {
			if err := analyze(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return opStats{}, err
	}
	return total.per(iters), nil
}

// serveSubset measures subset analyzes answered from cached fragments:
// traces uploads, each analysed once with the default suite, then one
// functions+mrc analyze of each — a strict subset of what the default
// suite cached, so no engine run and no trace read. Every rep starts
// from a fresh server so each measured request is the first subset
// request on its trace; returns ns per subset analyze.
func serveSubset(traces int) (opStats, error) {
	var best opStats
	for rep := 0; rep < 3; rep++ {
		st, err := serveSubsetOnce(traces)
		if err != nil {
			return opStats{}, err
		}
		if best.Ns == 0 || st.Ns < best.Ns {
			best = st
		}
	}
	return best.per(traces), nil
}

func serveSubsetOnce(traces int) (opStats, error) {
	s, err := server.New(server.Config{})
	if err != nil {
		return opStats{}, err
	}
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	analyze := func(id, body string) error {
		resp, err := http.Post(hs.URL+"/v1/traces/"+id+"/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("analyze %s: status %d", body, resp.StatusCode)
		}
		return nil
	}
	ids := make([]string, traces)
	for i := range ids {
		tr := benchTrace(16, 200)
		tr.Module = fmt.Sprintf("bench-%d", i) // distinct content hashes
		enc, err := tr.Encode()
		if err != nil {
			return opStats{}, err
		}
		resp, err := http.Post(hs.URL+"/v1/traces", server.ContentTypeTrace, bytes.NewReader(enc))
		if err != nil {
			return opStats{}, err
		}
		var info server.TraceInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			return opStats{}, err
		}
		ids[i] = info.ID
		if err := analyze(info.ID, ""); err != nil {
			return opStats{}, err
		}
	}
	return bestOf(1, func() error {
		for _, id := range ids {
			if err := analyze(id, `{"analyses":["functions","mrc"]}`); err != nil {
				return err
			}
		}
		return nil
	})
}

// clusterProxy measures the warm proxied-analyze path of a two-replica
// ring on real listeners: one upload, a priming analyze through the
// non-owner (which forwards to the owner and caches the Report
// replica-locally), then iters repeats — each a local cache hit on the
// proxying replica. Gated against serve_warm-like cost: the number
// tracks routing and cache overhead, not engine work, so a regression
// means the proxy layer itself got slower.
func clusterProxy(iters int) (opStats, error) {
	const n = 2
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return opStats{}, err
		}
		defer ln.Close()
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	for i := range lns {
		s, err := server.New(server.Config{Peers: peers, Advertise: peers[i], ProbeInterval: -1})
		if err != nil {
			return opStats{}, err
		}
		defer s.Close()
		hs := &http.Server{Handler: s}
		go hs.Serve(lns[i])
		defer hs.Close()
	}

	enc, err := benchTrace(16, 200).Encode()
	if err != nil {
		return opStats{}, err
	}
	resp, err := http.Post("http://"+peers[0]+"/v1/traces", server.ContentTypeTrace, bytes.NewReader(enc))
	if err != nil {
		return opStats{}, err
	}
	var info server.TraceInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		return opStats{}, err
	}

	// The vantage is whichever replica does NOT own the trace, so every
	// analyze below crosses the proxy layer.
	norm := make([]string, n)
	for i, p := range peers {
		norm[i] = cluster.Normalize(p)
	}
	vantage := peers[0]
	if cluster.Owner(norm, info.ID) == norm[0] {
		vantage = peers[1]
	}
	analyze := func() error {
		resp, err := http.Post("http://"+vantage+"/v1/traces/"+info.ID+"/analyze",
			"application/json", strings.NewReader(`{"analyses":["functions","mrc"]}`))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("proxied analyze: status %d", resp.StatusCode)
		}
		return nil
	}
	if err := analyze(); err != nil { // prime the vantage's local cache
		return opStats{}, err
	}
	total, err := bestOf(3, func() error {
		for i := 0; i < iters; i++ {
			if err := analyze(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return opStats{}, err
	}
	return total.per(iters), nil
}

// clusterFailover measures the warm degraded-fleet analyze path: a
// three-replica ring at the default replication of 2, one upload, then
// the PRIMARY owner of the trace is killed and every analyze goes
// through the one replica that owns nothing — so each request crosses
// the failover route (skip the dead owner, reach the surviving one) on
// top of the proxy layer clusterProxy already gates. The priming
// analyze pays the transport retries that mark the dead peer down;
// the measured iterations are what a steady degraded fleet serves.
func clusterFailover(iters int) (opStats, error) {
	const n = 3
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return opStats{}, err
		}
		defer ln.Close()
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	hss := make([]*http.Server, n)
	for i := range lns {
		s, err := server.New(server.Config{Peers: peers, Advertise: peers[i],
			ProbeInterval: -1, RepairInterval: -1})
		if err != nil {
			return opStats{}, err
		}
		defer s.Close()
		hss[i] = &http.Server{Handler: s}
		go hss[i].Serve(lns[i])
		defer hss[i].Close()
	}

	enc, err := benchTrace(16, 200).Encode()
	if err != nil {
		return opStats{}, err
	}
	resp, err := http.Post("http://"+peers[0]+"/v1/traces", server.ContentTypeTrace, bytes.NewReader(enc))
	if err != nil {
		return opStats{}, err
	}
	var info server.TraceInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		return opStats{}, err
	}

	// Rendezvous order of the id: owners[0] is the primary to kill; the
	// vantage is the one replica that is not an owner at replication 2.
	norm := make([]string, n)
	idx := map[string]int{}
	for i, p := range peers {
		norm[i] = cluster.Normalize(p)
		idx[norm[i]] = i
	}
	owners := cluster.Owners(norm, info.ID, 2)
	owned := map[int]bool{}
	for _, o := range owners {
		owned[idx[o]] = true
	}
	vantage := ""
	for i, p := range peers {
		if !owned[i] {
			vantage = p
		}
	}
	// Kill the primary owner from the network: stop accepting and sever
	// its listener. (Its Server object is reaped by the deferred closes.)
	primary := idx[owners[0]]
	hss[primary].Close()
	lns[primary].Close()

	analyze := func() error {
		resp, err := http.Post("http://"+vantage+"/v1/traces/"+info.ID+"/analyze",
			"application/json", strings.NewReader(`{"analyses":["functions","mrc"]}`))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("failover analyze: status %d", resp.StatusCode)
		}
		return nil
	}
	if err := analyze(); err != nil { // cascade past the dead owner, mark it down, warm the cache
		return opStats{}, err
	}
	total, err := bestOf(3, func() error {
		for i := 0; i < iters; i++ {
			if err := analyze(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return opStats{}, err
	}
	return total.per(iters), nil
}

// diffServed measures the warm cross-trace diff path: two uploads, one
// priming POST /v1/diff (which analyses both sides and caches the
// DiffReport), then iters cached diffs; returns ns per diff.
func diffServed(iters int) (opStats, error) {
	s, err := server.New(server.Config{})
	if err != nil {
		return opStats{}, err
	}
	defer s.Close()
	hs := httptest.NewServer(s)
	defer hs.Close()

	trA := benchTrace(16, 200)
	trB := benchTrace(12, 150)
	trB.Module = "bench-b" // distinct content hash
	upload := func(tr *trace.Trace) (string, error) {
		enc, err := tr.Encode()
		if err != nil {
			return "", err
		}
		resp, err := http.Post(hs.URL+"/v1/traces", server.ContentTypeTrace, bytes.NewReader(enc))
		if err != nil {
			return "", err
		}
		var info server.TraceInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		return info.ID, err
	}
	idA, err := upload(trA)
	if err != nil {
		return opStats{}, err
	}
	idB, err := upload(trB)
	if err != nil {
		return opStats{}, err
	}
	body := `{"a":"` + idA + `","b":"` + idB + `","analyses":["functions","mrc","confidence","interval-tree","zoom"]}`
	diffOnce := func() error {
		resp, err := http.Post(hs.URL+"/v1/diff", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("diff: status %d", resp.StatusCode)
		}
		return nil
	}
	if err := diffOnce(); err != nil { // prime both reports and the diff cache
		return opStats{}, err
	}
	total, err := bestOf(3, func() error {
		for i := 0; i < iters; i++ {
			if err := diffOnce(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return opStats{}, err
	}
	return total.per(iters), nil
}

// warmBoot measures durable-store recovery: the time storage.Open
// takes to rebuild its in-memory index by scanning segment headers
// over a directory pre-populated with traces. This is the restart
// cost a -data-dir deployment pays before it can serve, so the gate
// keeps it from silently regressing as the record framing or the
// recovery scan evolves.
func warmBoot(traces int) (opStats, error) {
	dir, err := os.MkdirTemp("", "memgaze-warmboot")
	if err != nil {
		return opStats{}, err
	}
	defer os.RemoveAll(dir)
	st, err := storage.Open(storage.Config{Dir: dir, CompactInterval: -1})
	if err != nil {
		return opStats{}, err
	}
	for i := 0; i < traces; i++ {
		tr := benchTrace(4+i, 64) // distinct sample counts → distinct content hashes
		id, size := tr.HashAndSize()
		meta := storage.Meta{Module: tr.Module, Mode: tr.Mode,
			Samples: tr.NumSamples(), Records: tr.NumRecords(),
			Rho: tr.Rho(), Kappa: tr.Kappa(), Uploaded: time.Now().UTC()}
		if _, err := st.Put(id, meta, size, tr); err != nil {
			st.Close()
			return opStats{}, err
		}
	}
	if err := st.Close(); err != nil {
		return opStats{}, err
	}
	return bestOf(5, func() error {
		re, err := storage.Open(storage.Config{Dir: dir, CompactInterval: -1})
		if err != nil {
			return err
		}
		if got := re.Len(); got != traces {
			re.Close()
			return fmt.Errorf("warm boot: recovered %d traces, want %d", got, traces)
		}
		return re.Close()
	})
}

// sweep measures the stack-distance sweep (all parts, precomputed
// Stats and address index as the engine passes them) over a large
// synthetic trace, best of reps — the derived layer's hot walk behind
// MRC, reuse intervals, and confidence.
func sweep(tr *trace.Trace, reps int) (opStats, error) {
	st := analysis.StatsOf(tr)
	ix, err := analysis.BuildAddrIndex(context.Background(), tr)
	if err != nil {
		return opStats{}, err
	}
	return bestOf(reps, func() error {
		_, err := analysis.NewSweep(context.Background(), tr, ix, 64, analysis.SweepEverything, st)
		return err
	})
}

// buildPooled measures one pooled (GOMAXPROCS-worker) build of a
// capture, best of reps.
func buildPooled(capture []byte, reps int) (opStats, error) {
	return bestOf(reps, func() error {
		cp, err := pt.ReadCapture(bytes.NewReader(capture))
		if err != nil {
			return err
		}
		_, _, err = cp.NewBuilder().Build(context.Background())
		return err
	})
}

// streamIngest compares buffered and streamed ingestion of the same
// on-disk capture. The buffered path mirrors POST /v1/traces (slurp the
// file, decode from memory); the streamed one mirrors
// PUT /v1/traces:stream (decode from the file in chunks).
func streamIngest(path string, scale, chunk int) (StreamIngestPoint, error) {
	pnt := StreamIngestPoint{Scale: scale}
	st, err := os.Stat(path)
	if err != nil {
		return pnt, err
	}
	pnt.CaptureBytes = st.Size()

	// The buffered path mirrors POST /v1/traces: slurp the file, decode
	// the capture from memory, build. The streamed one mirrors
	// PUT /v1/traces:stream: decode directly from the file in chunks.
	// Both sample the heap at their natural high-water points — after
	// buffering and every 64 built windows.
	sinkEvery := func(sample func()) pt.BuildOption {
		return pt.WithSampleSink(func(idx int, s *trace.Sample) {
			if idx%64 == 0 {
				sample()
			}
		})
	}
	buffered := func(sample func()) (*trace.Trace, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		cp, err := pt.ReadCapture(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		sample() // raw file bytes and the decoded capture both live
		tr, _, err := cp.NewBuilder(sinkEvery(sample)).Build(context.Background())
		return tr, err
	}
	streamed := func(sample func()) (*trace.Trace, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, _, err := pt.BuildCaptureStream(context.Background(), f,
			pt.WithChunkBytes(chunk), sinkEvery(sample))
		return tr, err
	}
	nop := func() {}

	// Timing runs first, without heap sampling; memory runs after, each
	// retaining its trace so overhead = peak − retained.
	var tr *trace.Trace
	bufNs, err := bestOf(3, func() error {
		t, err := buffered(nop)
		tr = t
		return err
	})
	if err != nil {
		return pnt, err
	}
	pnt.BufferedNs = bufNs.Ns
	pnt.Records = tr.NumRecords()
	bufHash := tr.Hash()
	strNs, err := bestOf(3, func() error {
		t, err := streamed(nop)
		tr = t
		return err
	})
	if err != nil {
		return pnt, err
	}
	pnt.StreamedNs = strNs.Ns
	if h := tr.Hash(); h != bufHash {
		return pnt, fmt.Errorf("streamed build diverged: %s != %s", h, bufHash)
	}
	if pnt.BufferedOverhead, err = measurePeak(func(sample func()) (any, error) {
		return buffered(sample)
	}); err != nil {
		return pnt, err
	}
	if pnt.StreamedOverhead, err = measurePeak(func(sample func()) (any, error) {
		return streamed(sample)
	}); err != nil {
		return pnt, err
	}
	return pnt, nil
}

// Bench runs the regression-gated benchmarks and the streamed-ingest
// memory comparison. Sizes scale the capture: the base capture replays
// MicroAccesses × MicroReps loads and the large one 10× that, so the
// quick/full split controls runtime the same way it does elsewhere.
func Bench(s Sizes) (*BenchResult, error) {
	res := &BenchResult{
		GoVersion:  runtime.Version(),
		ChunkBytes: pt.DefaultStreamChunk,
		Workers:    runtime.GOMAXPROCS(0),
	}

	warm, err := serveWarm(100)
	if err != nil {
		return nil, fmt.Errorf("serve warm: %w", err)
	}
	gate := func(name string, st opStats) {
		res.Gate = append(res.Gate, BenchMetric{Name: name,
			NsPerOp: st.Ns, AllocsPerOp: st.Allocs, BytesPerOp: st.Bytes})
	}
	gate("serve_warm", warm)

	baseLoads := s.MicroAccesses * s.MicroReps
	capture, err := benchCapture(baseLoads)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	pooled, err := buildPooled(capture, 5)
	if err != nil {
		return nil, fmt.Errorf("build pooled: %w", err)
	}
	gate("build_pooled", pooled)

	// The sweep over a large trace: samples scale with the workload
	// sizes so quick/full control runtime here too.
	sweepTr := benchTrace(s.MicroReps*4, 512)
	sweepNs, err := sweep(sweepTr, 5)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	gate("sweep", sweepNs)

	diffNs, err := diffServed(100)
	if err != nil {
		return nil, fmt.Errorf("diff served: %w", err)
	}
	gate("diff_served", diffNs)

	proxyNs, err := clusterProxy(100)
	if err != nil {
		return nil, fmt.Errorf("cluster proxy: %w", err)
	}
	gate("cluster_proxy", proxyNs)

	failNs, err := clusterFailover(100)
	if err != nil {
		return nil, fmt.Errorf("cluster failover: %w", err)
	}
	gate("cluster_failover", failNs)

	bootNs, err := warmBoot(32)
	if err != nil {
		return nil, fmt.Errorf("warm boot: %w", err)
	}
	gate("warm_boot", bootNs)

	// encode_v3 gates the columnar writer: serialisation cost of the
	// sweep trace in the v3 delta+varint format.
	encNs, err := bestOf(5, func() error {
		_, err := sweepTr.Encode()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("encode v3: %w", err)
	}
	gate("encode_v3", encNs)

	subsetNs, err := serveSubset(8)
	if err != nil {
		return nil, fmt.Errorf("serve subset: %w", err)
	}
	gate("serve_subset", subsetNs)

	// On-disk comparison of the two wire formats over an O0 trace.
	o0App, _ := s.miniviteApp(minivite.V1, minivite.O0, true)
	o0, err := core.RunApp(o0App, s.fullModeConfig())
	if err != nil {
		return nil, fmt.Errorf("O0 trace: %w", err)
	}
	v3enc, err := o0.Trace.Encode()
	if err != nil {
		return nil, err
	}
	v2enc, err := o0.Trace.EncodeLegacy(2)
	if err != nil {
		return nil, err
	}
	res.EncodedV2Bytes, res.EncodedV3Bytes = int64(len(v2enc)), int64(len(v3enc))

	// Streamed vs buffered ingest at 1× and 10× capture sizes, from a
	// temp file so the streamed path never holds the capture in memory.
	dir, err := os.MkdirTemp("", "memgaze-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, scale := range []int{1, 10} {
		cap, err := benchCapture(baseLoads * scale)
		if err != nil {
			return nil, err
		}
		path := fmt.Sprintf("%s/cap%d", dir, scale)
		if err := os.WriteFile(path, cap, 0o644); err != nil {
			return nil, err
		}
		cap = nil
		pnt, err := streamIngest(path, scale, pt.DefaultStreamChunk)
		if err != nil {
			return nil, fmt.Errorf("stream ingest %dx: %w", scale, err)
		}
		res.Stream = append(res.Stream, pnt)
	}

	gt := report.NewTable("Gated benchmarks (best-of-reps)", "name", "ns/op", "allocs/op", "B/op")
	for _, m := range res.Gate {
		gt.Add(m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}
	st := report.NewTable("Streamed vs buffered ingest (chunked decode from disk)",
		"capture", "records", "streamed", "buffered", "stream overhead", "buffered overhead")
	for _, p := range res.Stream {
		st.Add(fmt.Sprintf("%dx %s", p.Scale, report.Bytes(uint64(p.CaptureBytes))),
			p.Records,
			fmt.Sprintf("%.1fms", float64(p.StreamedNs)/1e6),
			fmt.Sprintf("%.1fms", float64(p.BufferedNs)/1e6),
			report.Bytes(uint64(p.StreamedOverhead)), report.Bytes(uint64(p.BufferedOverhead)))
	}
	res.Text = gt.Render() + "\n" + st.Render()
	if res.EncodedV2Bytes > 0 {
		res.Text += fmt.Sprintf("\nO0 miniVite wire size: v2 %s, v3 %s (%.2fx)\n",
			report.Bytes(uint64(res.EncodedV2Bytes)), report.Bytes(uint64(res.EncodedV3Bytes)),
			float64(res.EncodedV2Bytes)/float64(res.EncodedV3Bytes))
	}
	return res, nil
}
