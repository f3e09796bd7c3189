package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/engine"
	"github.com/memgaze/memgaze-go/internal/instrument"
	"github.com/memgaze/memgaze-go/internal/pt"
	"github.com/memgaze/memgaze-go/internal/trace"
	"github.com/memgaze/memgaze-go/internal/trace/tracetest"
)

// testTrace synthesizes a deterministic sampled trace with several
// procedures, a hot region and a sparse one, and some compression.
func testTrace(samples, recs int) *trace.Trace {
	rng := rand.New(rand.NewSource(11))
	procs := []string{"alpha", "beta", "gamma"}
	tr := &trace.Trace{
		Module: "synth", Mode: "sampled", Period: 10_000,
		TotalLoads: uint64(samples) * 10_000,
	}
	for s := 0; s < samples; s++ {
		smp := &trace.Sample{Seq: s, TriggerLoads: uint64(s+1) * 10_000}
		for i := 0; i < recs; i++ {
			var addr uint64
			if rng.Intn(4) == 0 {
				addr = 0x4000_0000 + uint64(rng.Intn(1<<16))*64
			} else {
				addr = 0x2000_0000 + uint64(rng.Intn(1<<10))*8
			}
			rec := trace.Record{
				TS:    uint64(s*recs+i) * 3,
				IP:    0x401000 + uint64(rng.Intn(64))*8,
				Addr:  addr,
				Class: dataflow.Class(rng.Intn(3)),
				Proc:  procs[rng.Intn(len(procs))],
				Line:  int32(rng.Intn(20)),
			}
			if rng.Intn(8) == 0 {
				rec.Implied = uint32(1 + rng.Intn(3))
			}
			smp.Records = append(smp.Records, rec)
		}
		tr.AppendSample(smp)
	}
	return tr
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() { hs.Close(); s.Close() })
	return s, hs
}

func uploadTrace(t *testing.T, base string, tr *trace.Trace) TraceInfo {
	t.Helper()
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/traces", ContentTypeTrace, bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload: status %d: %s", resp.StatusCode, b)
	}
	var info TraceInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// errCode decodes the /v1 error envelope and returns its stable code.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body %q is not the envelope: %v", body, err)
	}
	return env.Error.Code
}

func postAnalyze(t *testing.T, base, id, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/traces/"+id+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestHandlers is the table-driven error-path suite: bad methods,
// unknown ids, malformed bodies, oversized uploads, timeouts.
func TestHandlers(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxUploadBytes: 1 << 20})
	tr := testTrace(8, 50)
	info := uploadTrace(t, hs.URL, tr)

	_, tinyHS := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	tinyInfo := uploadTrace(t, tinyHS.URL, tr)

	// A ~30-byte MGTR body whose string table claims 2^35 entries: must
	// answer 400 without the decoder preallocating from the hostile count.
	var hostile bytes.Buffer
	hostile.WriteString("MGTR")
	writeU := func(v uint64) {
		var b [10]byte
		n := binary.PutUvarint(b[:], v)
		hostile.Write(b[:n])
	}
	writeU(2) // version
	writeU(0) // module ""
	writeU(0) // mode ""
	for i := 0; i < 7; i++ {
		writeU(0) // fixed header fields
	}
	writeU(1 << 35) // string-table count

	// A ~25-byte v3 body whose sample index claims 2^35 records: the
	// columnar reader must refuse the implausible total up front, so
	// memgazed answers 400 invalid_trace instead of OOMing on column
	// preallocation.
	var hostileV3 bytes.Buffer
	writeU3 := func(v uint64) {
		var b [10]byte
		n := binary.PutUvarint(b[:], v)
		hostileV3.Write(b[:n])
	}
	hostileV3.WriteString("MGTR")
	writeU3(3) // version
	writeU3(0) // module ""
	writeU3(0) // mode ""
	for i := 0; i < 7; i++ {
		writeU3(0) // fixed header fields
	}
	writeU3(0)       // empty string table
	writeU3(1)       // one sample...
	writeU3(0)       // seq
	writeU3(0)       // cpu
	writeU3(0)       // trigger
	writeU3(1 << 35) // ...claiming 2^35 records

	cases := []struct {
		name   string
		method string
		url    string
		ctype  string
		body   string
		want   int
		code   string // expected error.code; "" skips the envelope check
	}{
		{"healthz ok", "GET", hs.URL + "/v1/healthz", "", "", 200, ""},
		{"healthz bad method", "POST", hs.URL + "/v1/healthz", "", "", 405, ""},
		{"traces bad method", "PATCH", hs.URL + "/v1/traces", "", "", 405, ""},
		{"analyze bad method", "GET", hs.URL + "/v1/traces/" + info.ID + "/analyze", "", "", 405, ""},
		{"metrics ok", "GET", hs.URL + "/metrics", "", "", 200, ""},
		{"get unknown id", "GET", hs.URL + "/v1/traces/deadbeef", "", "", 404, ErrCodeTraceNotFound},
		{"delete unknown id", "DELETE", hs.URL + "/v1/traces/deadbeef", "", "", 404, ErrCodeTraceNotFound},
		{"analyze unknown id", "POST", hs.URL + "/v1/traces/deadbeef/analyze", "application/json", "{}", 404, ErrCodeTraceNotFound},
		{"upload malformed trace", "POST", hs.URL + "/v1/traces", ContentTypeTrace, "not a trace", 400, ErrCodeInvalidTrace},
		{"upload hostile trace header", "POST", hs.URL + "/v1/traces", ContentTypeTrace, hostile.String(), 400, ErrCodeInvalidTrace},
		{"upload hostile v3 record count", "POST", hs.URL + "/v1/traces", ContentTypeTrace, hostileV3.String(), 400, ErrCodeInvalidTrace},
		{"upload malformed capture", "POST", hs.URL + "/v1/traces", ContentTypePT, "not a capture", 400, ErrCodeInvalidCapture},
		{"upload bad content type", "POST", hs.URL + "/v1/traces", "text/csv", "a,b", 415, ErrCodeUnsupportedMediaType},
		{"analyze malformed json", "POST", hs.URL + "/v1/traces/" + info.ID + "/analyze", "application/json", "{", 400, ErrCodeInvalidRequest},
		{"analyze unknown field", "POST", hs.URL + "/v1/traces/" + info.ID + "/analyze", "application/json", `{"nope":1}`, 400, ErrCodeInvalidRequest},
		{"analyze unknown analysis", "POST", hs.URL + "/v1/traces/" + info.ID + "/analyze", "application/json", `{"analyses":["bogus"]}`, 400, ErrCodeUnknownAnalysis},
		{"analyze timeout", "POST", tinyHS.URL + "/v1/traces/" + tinyInfo.ID + "/analyze", "application/json", `{}`, 504, ErrCodeDeadlineExceeded},
		{"get ok", "GET", hs.URL + "/v1/traces/" + info.ID, "", "", 200, ""},
		{"list ok", "GET", hs.URL + "/v1/traces", "", "", 200, ""},
		{"list bad limit", "GET", hs.URL + "/v1/traces?limit=bogus", "", "", 400, ErrCodeInvalidRequest},
		{"diff missing ids", "POST", hs.URL + "/v1/diff", "application/json", `{"a":"` + info.ID + `"}`, 400, ErrCodeInvalidRequest},
		{"diff unknown trace", "POST", hs.URL + "/v1/diff", "application/json", `{"a":"` + info.ID + `","b":"deadbeef"}`, 404, ErrCodeTraceNotFound},
		{"diff unknown analysis", "POST", hs.URL + "/v1/diff", "application/json", `{"a":"` + info.ID + `","b":"` + info.ID + `","analyses":["bogus"]}`, 400, ErrCodeUnknownAnalysis},
		{"diff malformed json", "POST", hs.URL + "/v1/diff", "application/json", "{", 400, ErrCodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.url, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.ctype != "" {
				req.Header.Set("Content-Type", tc.ctype)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, b)
			}
			if tc.code != "" {
				if got := errCode(t, b); got != tc.code {
					t.Errorf("error.code = %q, want %q (body %s)", got, tc.code, b)
				}
			}
		})
	}
}

// TestUploadDedupAndLifecycle pins the store lifecycle: a re-upload of
// identical content answers 200 with Existed, GET serves metadata,
// DELETE evicts, and analyze of a deleted trace is 404.
func TestUploadDedupAndLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	tr := testTrace(6, 40)
	first := uploadTrace(t, hs.URL, tr)
	if first.Existed {
		t.Fatal("first upload marked Existed")
	}
	if first.ID != tr.Hash() {
		t.Fatalf("id = %s, want content hash %s", first.ID, tr.Hash())
	}
	second := uploadTrace(t, hs.URL, tr)
	if !second.Existed || second.ID != first.ID {
		t.Fatalf("re-upload: %+v", second)
	}

	resp, err := http.Get(hs.URL + "/v1/traces/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got TraceInfo
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.Records != tr.NumRecords() || got.Samples != tr.NumSamples() {
		t.Fatalf("metadata %+v", got)
	}

	req, _ := http.NewRequest("DELETE", hs.URL+"/v1/traces/"+first.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	r2, _ := postAnalyze(t, hs.URL, first.ID, "{}")
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("analyze after delete: %d", r2.StatusCode)
	}
}

// TestAnalyzeHugeWindowIsOneGroup pins the inter-window span for a
// window size of 2^64-1 through the API: the whole 40-sample trace is
// one group, so exactly one window is measured (the span arithmetic
// used to wrap and measure 40 one-sample groups instead).
func TestAnalyzeHugeWindowIsOneGroup(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	tr := &trace.Trace{Module: "huge-window", Mode: "sampled", Period: 5000, TotalLoads: 40 * 5000}
	for s := 0; s < 40; s++ {
		tr.AddSample(s, 0, uint64(s+1)*5000)
		for i := 0; i < 16; i++ {
			tr.AppendRecord(&trace.Record{Addr: uint64(0x1000 + 8*(s*16+i)), Class: dataflow.Irregular, Proc: "f"})
		}
	}
	info := uploadTrace(t, hs.URL, tr)
	resp, body := postAnalyze(t, hs.URL, info.ID, `{"analyses":["windows"],"windows":[18446744073709551615]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("analyze: status %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Windows []struct {
			W uint64
			N int
		}
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) != 1 || rep.Windows[0].W != math.MaxUint64 || rep.Windows[0].N != 1 {
		t.Errorf("windows = %+v, want one W=2^64-1 entry with N=1", rep.Windows)
	}
}

// TestServedReportMatchesLocal is the end-to-end determinism pin: the
// served Report must be byte-identical to marshalling a local engine
// run over the same trace with the same options.
func TestServedReportMatchesLocal(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	tr := testTrace(16, 120)
	info := uploadTrace(t, hs.URL, tr)

	for _, body := range []string{
		"", // default suite
		`{"analyses":["functions","mrc","reuse-intervals"],"block_size":128}`,
		`{"analyses":["zoom","heatmap"],"heatmap_rows":8,"heatmap_cols":16}`,
	} {
		resp, served := postAnalyze(t, hs.URL, info.ID, body)
		if resp.StatusCode != 200 {
			t.Fatalf("analyze %q: status %d: %s", body, resp.StatusCode, served)
		}

		var req AnalyzeRequest
		if body != "" {
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatal(err)
			}
		}
		opts, err := req.engineOptions()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := engine.New(tr, opts...).Run(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		local, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, local) {
			t.Errorf("served report differs from local engine run for body %q (%d vs %d bytes)", body, len(served), len(local))
		}
	}
}

// TestResultCacheHit pins the O(1) repeat path: the second identical
// request is served from the cache, byte-identical, and counted.
func TestResultCacheHit(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	info := uploadTrace(t, hs.URL, testTrace(8, 60))

	_, cold := postAnalyze(t, hs.URL, info.ID, `{"analyses":["functions"]}`)
	resp, warm := postAnalyze(t, hs.URL, info.ID, `{"analyses":["functions"]}`)
	if !bytes.Equal(cold, warm) {
		t.Error("cached response differs")
	}
	if resp.Header.Get("X-Memgazed-Cache") != "hit" {
		t.Error("second request did not hit the result cache")
	}
	if h := s.metrics.cacheHits.Load(); h != 1 {
		t.Errorf("cacheHits = %d, want 1", h)
	}
	// Engine ran once: one observation of the one requested analysis.
	if n := s.metrics.analysis["functions"].count.Load(); n != 1 {
		t.Errorf("functions ran %d times, want 1", n)
	}
}

// TestCoalescing pins the singleflight layer: K identical concurrent
// requests run the engine once, all receive identical bytes, and the
// coalesced counter (surfaced at /metrics) records K-1 joins. The gated
// leader is released only once the join hook has seen every duplicate
// attach to its flight, so no duplicate can arrive late, find the
// leader's fragments already cached, and count as a hit instead.
func TestCoalescing(t *testing.T) {
	const K = 8
	s, hs := newTestServer(t, Config{Workers: 2})
	info := uploadTrace(t, hs.URL, testTrace(8, 60))

	gate := make(chan struct{})
	s.hookAnalyzeStart = func() { <-gate }
	var joins atomic.Int64
	s.flights.hookJoined = func() { joins.Add(1) }

	var wg sync.WaitGroup
	bodies := make([][]byte, K)
	codes := make([]int, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := postAnalyze(t, hs.URL, info.ID, `{"analyses":["functions","mrc"]}`)
			codes[i], bodies[i] = resp.StatusCode, b
		}()
	}
	// Wait until the K-1 duplicates have joined the leader's flight,
	// then release the gated leader.
	deadline := time.Now().Add(10 * time.Second)
	for joins.Load() < K-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d duplicates joined", joins.Load(), K-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	s.hookAnalyzeStart = nil
	s.flights.hookJoined = nil

	for i := 0; i < K; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: response differs", i)
		}
	}
	if n := s.metrics.analysis["functions"].count.Load(); n != 1 {
		t.Errorf("engine ran functions %d times, want 1 (coalescing failed)", n)
	}
	if c := s.metrics.coalesced.Load(); c != K-1 {
		t.Errorf("coalesced = %d, want %d", c, K-1)
	}
	// The counters must be visible in the Prometheus rendering.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), fmt.Sprintf("memgazed_singleflight_coalesced_total %d", K-1)) {
		t.Error("/metrics does not report the coalesced count")
	}
}

// captureNotes builds a small annotation file: single-register strided
// loads across two procedures.
func captureNotes() *instrument.Annotations {
	n := &instrument.Annotations{
		Module:   "cap",
		Loads:    map[uint64]*instrument.LoadNote{},
		PTWrites: map[uint64]*instrument.PTWNote{},
		AddrMap:  map[uint64]uint64{},
	}
	for i := 0; i < 8; i++ {
		ptw := 0x100 + uint64(i)*0x10
		load := ptw + 5
		proc := "f"
		if i >= 4 {
			proc = "g"
		}
		n.PTWrites[ptw] = &instrument.PTWNote{PTWAddr: ptw, LoadAddr: load,
			Operand: instrument.OpndBase, NumOperands: 1}
		n.Loads[load] = &instrument.LoadNote{LoadAddr: load, Proc: proc,
			Line: int32(i), Class: dataflow.Strided, Stride: 8, Instrumented: true}
	}
	return n
}

// TestPTCaptureUpload uploads a raw PT capture and checks the
// server-side build matches a local Builder run over the same capture.
func TestPTCaptureUpload(t *testing.T) {
	notes := captureNotes()
	col := pt.NewCollector(pt.Config{Mode: pt.ModeContinuous, Period: 500, BufBytes: 4 << 10})
	ts := uint64(0)
	for i := 0; i < 5000; i++ {
		ts += 7
		ptw := 0x100 + uint64(i%8)*0x10
		col.PTWrite(ptw, 0x2000_0000+uint64(i)*8, ts)
		col.OnLoad(ts)
	}
	cp, err := col.Capture(notes)
	if err != nil {
		t.Fatal(err)
	}
	local, _, err := cp.NewBuilder().Build(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if local.NumRecords() == 0 {
		t.Fatal("capture built an empty trace")
	}

	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{})
	resp, err := http.Post(hs.URL+"/v1/traces", ContentTypePT, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var info TraceInfo
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != local.Hash() {
		t.Errorf("served build hash %s != local build hash %s", info.ID, local.Hash())
	}
	if info.Records != local.NumRecords() || info.Decode == nil || info.Decode.Records != local.NumRecords() {
		t.Errorf("info %+v vs local records %d", info, local.NumRecords())
	}
}

// TestServerStress exercises concurrent uploads, analyses, deletes, and
// metric scrapes; run under -race it doubles as the served-path data
// race check.
func TestServerStress(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 4, StoreBudgetBytes: 1 << 20})
	traces := make([]*trace.Trace, 4)
	ids := make([]string, len(traces))
	encs := make([][]byte, len(traces))
	for i := range traces {
		traces[i] = testTrace(4+i, 30)
		ids[i] = uploadTrace(t, hs.URL, traces[i]).ID
		encs[i], _ = traces[i].Encode()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch i % 4 {
				case 0:
					resp, err := http.Post(hs.URL+"/v1/traces/"+ids[i%len(ids)]+"/analyze",
						"application/json", strings.NewReader(`{"analyses":["functions"]}`))
					if err != nil {
						t.Errorf("analyze: %v", err)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 && resp.StatusCode != 404 {
						t.Errorf("analyze: %d", resp.StatusCode)
					}
				case 1:
					resp, err := http.Post(hs.URL+"/v1/traces", ContentTypeTrace,
						bytes.NewReader(encs[(g+i)%len(encs)]))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 2:
					resp, err := http.Get(hs.URL + "/metrics")
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 3:
					resp, err := http.Get(hs.URL + "/v1/traces/" + ids[(g+i)%len(ids)])
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	wg.Wait()
	if s.store.Len() == 0 {
		t.Error("store emptied unexpectedly")
	}
}

// TestNoSharedTimingCache asserts — at the import graph level — that
// the served analysis paths cannot touch internal/cache: its Cache is
// documented "not safe for concurrent use" and belongs to workload
// execution, never to concurrent HTTP handlers. TestServerStress under
// -race is the dynamic half of this check.
func TestNoSharedTimingCache(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for fname, f := range pkg.Files {
			if strings.HasSuffix(fname, "_test.go") {
				continue
			}
			for _, imp := range f.Imports {
				if strings.Contains(imp.Path.Value, "internal/cache") {
					t.Errorf("%s imports %s: the timing cache is single-goroutine and must stay out of served paths", fname, imp.Path.Value)
				}
			}
		}
	}
}

// TestUploadLocationHeader pins the Location contract of both upload
// paths: create and dedup answers alike point clients at the trace's
// canonical resource, /v1/traces/{id}.
func TestUploadLocationHeader(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	tr := testTrace(3, 20)
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	id, _ := tr.HashAndSize()
	want := "/v1/traces/" + id

	resp, err := http.Post(hs.URL+"/v1/traces", ContentTypeTrace, bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("Location") != want {
		t.Fatalf("upload = %d Location %q, want 201 %q", resp.StatusCode, resp.Header.Get("Location"), want)
	}

	// The dedup repeat (200) carries the same Location.
	resp, err = http.Post(hs.URL+"/v1/traces", ContentTypeTrace, bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Location") != want {
		t.Fatalf("dedup upload = %d Location %q", resp.StatusCode, resp.Header.Get("Location"))
	}

	// The streamed path answers identically.
	req, err := http.NewRequest(http.MethodPut, hs.URL+"/v1/traces:stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeTrace)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Location") != want {
		t.Fatalf("streamed upload = %d Location %q", resp.StatusCode, resp.Header.Get("Location"))
	}
}

// TestUploadExpansionBombRejected pins the decoder's expansion bound at
// the service: a body of a few dozen bytes whose eight RLE columns each
// claim 2^22 or 2^31 records, or 2^32 behind a 4 MiB module name,
// answers 400 invalid_trace, buffered and streamed, instead of
// materializing gigabytes of columns.
func TestUploadExpansionBombRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, c := range []struct {
		records uint64
		pad     int
	}{{1 << 22, 0}, {1 << 31, 0}, {1 << 32, 4 << 20}} {
		bomb := tracetest.RLEBomb(c.records, c.pad)
		for _, up := range []struct{ method, path string }{
			{"POST", "/v1/traces"},
			{"PUT", "/v1/traces:stream"},
		} {
			req, err := http.NewRequest(up.method, hs.URL+up.path, bytes.NewReader(bomb))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", ContentTypeTrace)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s, %d records in %d bytes: status %d, want 400: %s",
					up.method, up.path, c.records, len(bomb), resp.StatusCode, body)
			}
			if code := errCode(t, body); code != ErrCodeInvalidTrace {
				t.Errorf("%s %s: code %q, want %q", up.method, up.path, code, ErrCodeInvalidTrace)
			}
		}
	}
}

// TestUploadCompressibleAccepted pins that the upload bound and the
// writer agree: a trace of one strided load, each column of which
// compresses to a few bytes per sample, uploads buffered and streamed.
func TestUploadCompressibleAccepted(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	tr := &trace.Trace{Module: "strided", Mode: "sampled", Period: 10_000}
	for s := 0; s < 4; s++ {
		smp := &trace.Sample{Seq: s, TriggerLoads: uint64(s+1) * 10_000}
		for i := 0; i < 4000; i++ {
			smp.Records = append(smp.Records, trace.Record{
				IP: 0x401000, Addr: 0x20000000 + uint64(s*4000+i)*8, TS: uint64(s*4000 + i),
				Class: dataflow.Strided, Stride: 8, Line: 12, Proc: "loop",
			})
		}
		tr.AppendSample(smp)
	}
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range []struct {
		method, path string
		want         int
	}{
		{"POST", "/v1/traces", http.StatusCreated},
		{"PUT", "/v1/traces:stream", http.StatusOK},
	} {
		req, err := http.NewRequest(up.method, hs.URL+up.path, bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ContentTypeTrace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != up.want {
			t.Fatalf("%s %s of %d records in %d bytes: status %d, want %d: %s",
				up.method, up.path, tr.NumRecords(), len(enc), resp.StatusCode, up.want, body)
		}
	}
}

// TestUploadBadClassRejected pins that a trace whose record class lies
// outside the three access classes answers 400 invalid_trace, buffered
// and streamed. Accepted, such a trace would index past the analyses'
// per-class arrays and crash the daemon on its first analyze.
func TestUploadBadClassRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	tr := testTrace(4, 20)
	tr.AppendRecord(&trace.Record{Addr: 0x2000_0000, Class: 3, Proc: "alpha"})
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range []struct{ method, path string }{
		{"POST", "/v1/traces"},
		{"PUT", "/v1/traces:stream"},
	} {
		req, err := http.NewRequest(up.method, hs.URL+up.path, bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ContentTypeTrace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d, want 400: %s", up.method, up.path, resp.StatusCode, body)
		}
		if code := errCode(t, body); code != ErrCodeInvalidTrace {
			t.Errorf("%s %s: code %q, want %q", up.method, up.path, code, ErrCodeInvalidTrace)
		}
	}
}
