package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/diff"
	"github.com/memgaze/memgaze-go/internal/engine"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// diffTestTrace is testTrace with a caller-chosen seed, so two calls
// produce genuinely different traces with overlapping symbol sets.
func diffTestTrace(seed int64, samples, recs int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
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
			smp.Records = append(smp.Records, rec)
		}
		tr.AppendSample(smp)
	}
	return tr
}

func postDiff(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/diff", "application/json", strings.NewReader(body))
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

// TestServedDiffMatchesLocal pins the serve path against the library:
// POST /v1/diff must answer byte-identically to diff.Diff over local
// engine runs of the same two traces with the same parameters.
func TestServedDiffMatchesLocal(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	trA := diffTestTrace(11, 12, 100)
	trB := diffTestTrace(77, 10, 90)
	infoA := uploadTrace(t, hs.URL, trA)
	infoB := uploadTrace(t, hs.URL, trB)

	for _, tc := range []struct {
		analyses string
		topK     int
	}{
		{`["functions","mrc","confidence","interval-tree","zoom"]`, 0},
		{`["functions","lines","mrc","confidence","interval-tree","zoom"]`, 5},
	} {
		body := `{"a":"` + infoA.ID + `","b":"` + infoB.ID + `","analyses":` + tc.analyses + `}`
		if tc.topK > 0 {
			body = `{"a":"` + infoA.ID + `","b":"` + infoB.ID + `","top_k":` + strconv.Itoa(tc.topK) + `,"analyses":` + tc.analyses + `}`
		}
		resp, served := postDiff(t, hs.URL, body)
		if resp.StatusCode != 200 {
			t.Fatalf("diff %q: status %d: %s", body, resp.StatusCode, served)
		}

		var req AnalyzeRequest
		if err := json.Unmarshal([]byte(`{"analyses":`+tc.analyses+`}`), &req); err != nil {
			t.Fatal(err)
		}
		opts, err := req.engineOptions()
		if err != nil {
			t.Fatal(err)
		}
		ra, err := engine.New(trA, opts...).Run(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := engine.New(trB, opts...).Run(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		local, err := json.Marshal(diff.Diff(ra, rb, diff.WithTopK(tc.topK)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, local) {
			t.Errorf("served diff differs from local diff.Diff for body %q (%d vs %d bytes)", body, len(served), len(local))
		}
	}
}

// TestDiffCacheFlow pins the layering promise: a diff of two traces
// whose reports are already cached costs two analyze cache hits and no
// engine run, and a repeat of the same diff is a single diff-cache hit
// marked with X-Memgazed-Cache.
func TestDiffCacheFlow(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	infoA := uploadTrace(t, hs.URL, diffTestTrace(3, 8, 60))
	infoB := uploadTrace(t, hs.URL, diffTestTrace(4, 8, 60))

	const analyses = `{"analyses":["functions","mrc","confidence","interval-tree","zoom"]}`
	// Prime both sides through the analyze endpoint.
	for _, id := range []string{infoA.ID, infoB.ID} {
		if resp, b := postAnalyze(t, hs.URL, id, analyses); resp.StatusCode != 200 {
			t.Fatalf("prime %s: status %d: %s", id, resp.StatusCode, b)
		}
	}
	if got := s.metrics.cacheHits.Load(); got != 0 {
		t.Fatalf("cacheHits after priming = %d, want 0", got)
	}

	diffBody := `{"a":"` + infoA.ID + `","b":"` + infoB.ID + `","analyses":["functions","mrc","confidence","interval-tree","zoom"]}`
	resp, cold := postDiff(t, hs.URL, diffBody)
	if resp.StatusCode != 200 {
		t.Fatalf("cold diff: status %d: %s", resp.StatusCode, cold)
	}
	if resp.Header.Get("X-Memgazed-Cache") == "hit" {
		t.Error("cold diff claimed a cache hit")
	}
	// The diff missed its own cache but pulled both primed reports from
	// the analyze cache: exactly two hits, no third engine run.
	if got := s.metrics.cacheHits.Load(); got != 2 {
		t.Errorf("cacheHits after cold diff = %d, want 2 (one per side)", got)
	}

	resp, warm := postDiff(t, hs.URL, diffBody)
	if resp.StatusCode != 200 {
		t.Fatalf("warm diff: status %d: %s", resp.StatusCode, warm)
	}
	if resp.Header.Get("X-Memgazed-Cache") != "hit" {
		t.Error("warm diff not served from the result cache")
	}
	if !bytes.Equal(cold, warm) {
		t.Error("cached diff is not byte-identical to the original")
	}
	if got := s.metrics.cacheHits.Load(); got != 3 {
		t.Errorf("cacheHits after warm diff = %d, want 3", got)
	}

	// The hit is visible in /metrics.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"memgazed_result_cache_hits_total 3",
		`memgazed_requests_total{endpoint="diff"} 2`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDeleteInvalidatesDiff pins InvalidateTrace: deleting either side
// of a cached diff drops the diff entry and that side's fragments,
// whether the id is the key's first or middle segment, and keeps the
// other side's.
func TestDeleteInvalidatesDiff(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	infoA := uploadTrace(t, hs.URL, diffTestTrace(5, 6, 50))
	infoB := uploadTrace(t, hs.URL, diffTestTrace(6, 6, 50))

	// entriesUnder counts resident entries touching id: its fragments
	// (key "id|…") and diffs with id as either side ("a|b|digest").
	entriesUnder := func(id string) int {
		s.results.mu.Lock()
		defer s.results.mu.Unlock()
		n := 0
		for key := range s.results.entries {
			if strings.HasPrefix(key, id+"|") || strings.Contains(key, "|"+id+"|") {
				n++
			}
		}
		return n
	}

	diffBody := `{"a":"` + infoA.ID + `","b":"` + infoB.ID + `","analyses":["functions","mrc","confidence","interval-tree","zoom"]}`
	if resp, b := postDiff(t, hs.URL, diffBody); resp.StatusCode != 200 {
		t.Fatalf("diff: status %d: %s", resp.StatusCode, b)
	}
	// Five fragments per side, one diff entry touching both.
	if a, b := entriesUnder(infoA.ID), entriesUnder(infoB.ID); a != 6 || b != 6 {
		t.Fatalf("entries under a, b = %d, %d; want 6, 6", a, b)
	}

	req, err := http.NewRequest("DELETE", hs.URL+"/v1/traces/"+infoB.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	// B was the diff key's middle segment: no entry under it survives,
	// the diff entry included; A keeps its own fragments.
	if got := entriesUnder(infoB.ID); got != 0 {
		t.Errorf("entries under the deleted id = %d, want 0", got)
	}
	if got := entriesUnder(infoA.ID); got != 5 {
		t.Errorf("entries under the surviving id = %d, want its 5 fragments", got)
	}
	if resp, b := postDiff(t, hs.URL, diffBody); resp.StatusCode != http.StatusNotFound {
		t.Errorf("diff after delete: status %d, want 404: %s", resp.StatusCode, b)
	} else if got := errCode(t, b); got != ErrCodeTraceNotFound {
		t.Errorf("diff after delete: error.code = %q, want %q", got, ErrCodeTraceNotFound)
	}
}

// TestListTraces pins GET /v1/traces: id-ordered, paged by a stable
// cursor, and [] (not null) on an empty store.
func TestListTraces(t *testing.T) {
	_, hs := newTestServer(t, Config{})

	getList := func(query string) (TraceList, []byte) {
		resp, err := http.Get(hs.URL + "/v1/traces" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("list%s: status %d: %s", query, resp.StatusCode, b)
		}
		var tl TraceList
		if err := json.Unmarshal(b, &tl); err != nil {
			t.Fatal(err)
		}
		return tl, b
	}

	if _, b := getList(""); !strings.Contains(string(b), `"traces":[]`) {
		t.Errorf("empty store listed as %s, want \"traces\":[]", b)
	}

	want := make(map[string]bool)
	for seed := int64(0); seed < 5; seed++ {
		info := uploadTrace(t, hs.URL, diffTestTrace(seed+20, 3, 25))
		want[info.ID] = true
	}

	full, _ := getList("")
	if len(full.Traces) != 5 || full.Next != "" {
		t.Fatalf("full listing: %d traces, next %q; want 5 traces, no cursor", len(full.Traces), full.Next)
	}
	for i := 1; i < len(full.Traces); i++ {
		if full.Traces[i-1].ID >= full.Traces[i].ID {
			t.Fatalf("listing not in id order: %q before %q", full.Traces[i-1].ID, full.Traces[i].ID)
		}
	}

	// Page through with limit=2 and collect every id exactly once.
	got := make(map[string]bool)
	after, pages := "", 0
	for {
		query := "?limit=2"
		if after != "" {
			query += "&after=" + after
		}
		page, _ := getList(query)
		if len(page.Traces) > 2 {
			t.Fatalf("page of %d traces exceeds limit 2", len(page.Traces))
		}
		for _, info := range page.Traces {
			if got[info.ID] {
				t.Fatalf("id %q returned twice while paging", info.ID)
			}
			got[info.ID] = true
		}
		pages++
		if page.Next == "" {
			break
		}
		after = page.Next
		if pages > 10 {
			t.Fatal("paging did not terminate")
		}
	}
	if len(got) != len(want) {
		t.Fatalf("paging returned %d ids, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Errorf("paging missed id %q", id)
		}
	}
}
