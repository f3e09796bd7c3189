package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memgaze/memgaze-go/internal/pt"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// chunkedBody hides the body's concrete type from http.NewRequest so
// the client cannot learn a Content-Length and must use chunked
// transfer encoding — the wire shape of `curl -T . --no-buffer`.
type chunkedBody struct{ io.Reader }

// streamPut PUTs a body to /v1/traces:stream with chunked transfer
// encoding and decodes the TraceInfo answer.
func streamPut(t *testing.T, base, ctype string, body io.Reader) (*http.Response, TraceInfo, []byte) {
	t.Helper()
	return streamPutURL(t, base+"/v1/traces:stream", ctype, body)
}

// streamPutURL is streamPut against a full URL, query string included.
func streamPutURL(t *testing.T, url, ctype string, body io.Reader) (*http.Response, TraceInfo, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, chunkedBody{body})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var info TraceInfo
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(b, &info); err != nil {
			t.Fatalf("decoding %s: %v", b, err)
		}
	}
	return resp, info, b
}

// streamCapture synthesises a PT capture of roughly the requested
// size and returns its serialised bytes plus the locally built trace.
func streamCapture(t *testing.T, loads int) ([]byte, *trace.Trace, pt.DecodeStats) {
	t.Helper()
	return faultyCapture(t, loads, nil)
}

// faultyCapture is streamCapture with a hook that may corrupt the raw
// sample windows before the capture is serialised and built locally
// (under the default resync policy).
func faultyCapture(t *testing.T, loads int, corrupt func([]pt.RawSample)) ([]byte, *trace.Trace, pt.DecodeStats) {
	t.Helper()
	notes := captureNotes()
	col := pt.NewCollector(pt.Config{Mode: pt.ModeContinuous, Period: 500, BufBytes: 4 << 10})
	ts := uint64(0)
	for i := 0; i < loads; i++ {
		ts += 7
		ptw := 0x100 + uint64(i%8)*0x10
		col.PTWrite(ptw, 0x2000_0000+uint64(i)*8, ts)
		col.OnLoad(ts)
	}
	cp, err := col.Capture(notes)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != nil {
		corrupt(cp.Samples)
	}
	local, ds, err := cp.NewBuilder().Build(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), local, ds
}

// TestStreamUploadTrace pins the MGTR streamed path: a chunked PUT
// stores the same id as the buffered POST (byte-identical dedup), and
// the raw download returns the exact encoding with a correct
// Content-Length.
func TestStreamUploadTrace(t *testing.T) {
	tr := testTrace(8, 50)
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{})
	resp, info, b := streamPut(t, hs.URL, ContentTypeTrace, bytes.NewReader(enc))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("streamed upload: status %d: %s", resp.StatusCode, b)
	}
	if info.ID != tr.Hash() {
		t.Errorf("streamed id %s != trace hash %s", info.ID, tr.Hash())
	}
	if info.Records != tr.NumRecords() || info.Bytes != int64(len(enc)) {
		t.Errorf("info %+v, want records %d bytes %d", info, tr.NumRecords(), len(enc))
	}

	// The buffered path deduplicates against the streamed upload.
	buffered := uploadTrace(t, hs.URL, tr)
	if buffered.ID != info.ID || !buffered.Existed {
		t.Errorf("buffered twin: %+v, want existed with id %s", buffered, info.ID)
	}

	// Raw download: byte-identical, correct framing.
	dl, err := http.Get(hs.URL + "/v1/traces/" + info.ID + "/raw")
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Body.Close()
	if dl.StatusCode != http.StatusOK {
		t.Fatalf("raw download: status %d", dl.StatusCode)
	}
	if got := dl.Header.Get("Content-Type"); got != ContentTypeTrace {
		t.Errorf("raw Content-Type = %q", got)
	}
	if got := dl.Header.Get("Content-Length"); got != strconv.Itoa(len(enc)) {
		t.Errorf("raw Content-Length = %q, want %d", got, len(enc))
	}
	body, err := io.ReadAll(dl.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, enc) {
		t.Errorf("raw download differs from the uploaded encoding (%d vs %d bytes)", len(body), len(enc))
	}

	if _, err := http.Get(hs.URL + "/v1/traces/nope/raw"); err != nil {
		t.Fatal(err)
	}
}

// TestStreamUploadPT pins the PT streamed path against the buffered
// one: same id, and the same TraceInfo — records, κ, ρ — as the
// buffered build's.
func TestStreamUploadPT(t *testing.T) {
	capture, local, localDS := streamCapture(t, 5000)
	if local.NumRecords() == 0 {
		t.Fatal("capture built an empty trace")
	}

	_, bufHS := newTestServer(t, Config{})
	resp, err := http.Post(bufHS.URL+"/v1/traces", ContentTypePT, bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	var buffered TraceInfo
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("buffered upload: status %d: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &buffered); err != nil {
		t.Fatal(err)
	}

	// A small chunk forces the inline stream-decode path too.
	_, strHS := newTestServer(t, Config{StreamChunkBytes: 512})
	sresp, streamed, sb := streamPut(t, strHS.URL, ContentTypePT, bytes.NewReader(capture))
	if sresp.StatusCode != http.StatusCreated {
		t.Fatalf("streamed upload: status %d: %s", sresp.StatusCode, sb)
	}

	if streamed.ID != buffered.ID || streamed.ID != local.Hash() {
		t.Errorf("ids diverge: streamed %s buffered %s local %s", streamed.ID, buffered.ID, local.Hash())
	}
	if streamed.Samples != buffered.Samples || streamed.Records != buffered.Records ||
		streamed.Bytes != buffered.Bytes || streamed.Module != buffered.Module ||
		streamed.Mode != buffered.Mode {
		t.Errorf("metadata diverges:\nstreamed %+v\nbuffered %+v", streamed, buffered)
	}
	if streamed.Kappa != buffered.Kappa || streamed.Rho != buffered.Rho {
		t.Errorf("incremental κ/ρ diverge: streamed (%v, %v) buffered (%v, %v)",
			streamed.Kappa, streamed.Rho, buffered.Kappa, buffered.Rho)
	}
	if streamed.Decode == nil || *streamed.Decode != localDS {
		t.Errorf("streamed decode stats %+v, want %+v", streamed.Decode, localDS)
	}
}

// TestStreamUploadPTFaults streams a capture whose windows were
// damaged — some emptied outright, some bit-flipped or cut short — and
// pins that resync leaves the streamed answer exactly the buffered
// one's and exactly traceInfo of the locally built trace: empty windows
// add no samples, corrupt ones only what survived the resync. The raw
// download is the canonical encoding, so it hashes to the id.
func TestStreamUploadPTFaults(t *testing.T) {
	windows := 0
	capture, local, localDS := faultyCapture(t, 20_000, func(samples []pt.RawSample) {
		windows = len(samples)
		for i := range samples {
			switch i % 5 {
			case 1:
				samples[i].Raw = nil // decodes to no records
			case 2:
				samples[i].Raw = pt.Inject(samples[i].Raw, pt.FaultBitFlip, uint64(i))
			case 3:
				samples[i].Raw = pt.Inject(samples[i].Raw, pt.FaultMidVarint, uint64(i))
			}
		}
	})
	if local.NumRecords() == 0 {
		t.Fatal("capture built an empty trace")
	}
	if localDS.CorruptSamples == 0 || local.NumSamples() >= windows {
		t.Fatalf("faults left no corrupt or empty windows: %d samples of %d windows, %+v",
			local.NumSamples(), windows, localDS)
	}
	enc, err := local.Encode()
	if err != nil {
		t.Fatal(err)
	}
	id := local.Hash()
	want := traceInfo(id, local, int64(len(enc)))
	want.Tier = tierHot
	want.Decode = &localDS

	_, bufHS := newTestServer(t, Config{})
	resp, body := doReq(t, http.MethodPost, bufHS.URL+"/v1/traces?fault=resync",
		http.Header{"Content-Type": []string{ContentTypePT}}, capture)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("buffered upload: status %d: %s", resp.StatusCode, body)
	}
	var buffered TraceInfo
	if err := json.Unmarshal(body, &buffered); err != nil {
		t.Fatal(err)
	}

	_, strHS := newTestServer(t, Config{StreamChunkBytes: 512})
	sresp, streamed, sb := streamPutURL(t, strHS.URL+"/v1/traces:stream?fault=resync", ContentTypePT, bytes.NewReader(capture))
	if sresp.StatusCode != http.StatusCreated {
		t.Fatalf("streamed upload: status %d: %s", sresp.StatusCode, sb)
	}

	for name, got := range map[string]TraceInfo{"streamed": streamed, "buffered": buffered} {
		if got.Uploaded.IsZero() {
			t.Errorf("%s: no upload time", name)
		}
		got.Uploaded = time.Time{}
		if got.Decode == nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s info diverges from the local build:\ngot  %+v (decode %+v)\nwant %+v (decode %+v)",
				name, got, got.Decode, want, want.Decode)
		}
	}

	dl, raw := doReq(t, http.MethodGet, strHS.URL+"/v1/traces/"+id+"/raw", nil, nil)
	if dl.StatusCode != http.StatusOK {
		t.Fatalf("raw download: status %d", dl.StatusCode)
	}
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != id {
		t.Errorf("raw download hashes to %x, want %s", sum, id)
	}
	if !bytes.Equal(raw, enc) {
		t.Errorf("raw download differs from the local encoding (%d vs %d bytes)", len(raw), len(enc))
	}
}

// quotaBody serves a capture prefix and then endless padding, counting
// what the server actually consumed: if the server buffered the body
// before deciding, the test would hang (the reader never ends), and a
// large consumed count would show the quota was not mid-stream.
type quotaBody struct {
	prefix []byte
	served atomic.Int64 // read by the test while the transport still Reads
}

func (q *quotaBody) Read(p []byte) (int, error) {
	var n int
	if len(q.prefix) > 0 {
		n = copy(p, q.prefix)
		q.prefix = q.prefix[n:]
	} else {
		for i := range p {
			p[i] = 0
		}
		n = len(p)
	}
	q.served.Add(int64(n))
	return n, nil
}

// TestStreamQuotaMidStream pins the 413: a body larger than the quota —
// here, endless — is rejected mid-stream after roughly the quota's
// bytes, not buffered to completion (an after-the-fact check could
// never answer at all against an unbounded body).
func TestStreamQuotaMidStream(t *testing.T) {
	capture, _, _ := streamCapture(t, 200_000) // ~hundreds of KiB
	quota := int64(16 << 10)
	if int64(len(capture)) < 4*quota {
		t.Fatalf("capture too small to breach the quota: %d bytes", len(capture))
	}
	_, hs := newTestServer(t, Config{MaxUploadBytes: quota})

	body := &quotaBody{prefix: capture}
	resp, _, b := streamPut(t, hs.URL, ContentTypePT, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if got := errCode(t, b); got != ErrCodeBodyTooLarge {
		t.Errorf("error.code = %q, want %q", got, ErrCodeBodyTooLarge)
	}
	// The server stops reading at the quota, but the client transport
	// keeps pumping into kernel socket buffers until it sees the 413,
	// and under a loaded machine (the full test suite, CI) that slack
	// reaches several MiB. The bound only needs to separate "cut off
	// mid-stream" from "buffered an endless body" — the latter never
	// terminates at all, so any finite bound well above socket-buffer
	// slack does it.
	if served := body.served.Load(); served > 64<<20 {
		t.Errorf("server consumed %d bytes against a %d-byte quota", served, quota)
	}
}

// TestStreamUnsupportedType pins the 415 on unknown stream content.
func TestStreamUnsupportedType(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, _, b := streamPut(t, hs.URL, "application/x-unknown", strings.NewReader("xx"))
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("status %d, want 415", resp.StatusCode)
	}
	if got := errCode(t, b); got != ErrCodeUnsupportedMediaType {
		t.Errorf("error.code = %q, want %q", got, ErrCodeUnsupportedMediaType)
	}
}

// TestStreamMalformed pins the 400 on garbage stream bodies.
func TestStreamMalformed(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, ctype := range []string{ContentTypeTrace, ContentTypePT} {
		resp, _, b := streamPut(t, hs.URL, ctype, strings.NewReader("not a valid body"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", ctype, resp.StatusCode)
		}
		if got := errCode(t, b); got != ErrCodeInvalidTrace {
			t.Errorf("%s: error.code = %q, want %q", ctype, got, ErrCodeInvalidTrace)
		}
	}
}

// TestStreamMetrics pins the stream observability: the bytes-streamed
// histogram counts the upload, the in-flight gauge settles back to
// zero, and the endpoint shows up in the per-endpoint families.
func TestStreamMetrics(t *testing.T) {
	tr := testTrace(4, 20)
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, Config{})
	if resp, _, b := streamPut(t, hs.URL, ContentTypeTrace, bytes.NewReader(enc)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`memgazed_requests_total{endpoint="stream"} 1`,
		"memgazed_stream_bytes_count 1",
		"memgazed_streams_in_flight 0",
		`memgazed_stream_bytes_sum ` + strconv.Itoa(len(enc)),
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if g := s.Metrics().streamsInFlight.Load(); g != 0 {
		t.Errorf("in-flight gauge = %d after completion", g)
	}
}
