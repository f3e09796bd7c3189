package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memgaze/memgaze-go/internal/engine"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// engineReport is the oracle of every assembled report: json.Marshal of
// a direct engine run of body's analyses, in the order and with the
// repeats the body names them, under body's parameters.
func engineReport(t *testing.T, tr *trace.Trace, body string) []byte {
	t.Helper()
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
	if len(req.Analyses) > 0 {
		kinds := make([]engine.Analysis, len(req.Analyses))
		for i, name := range req.Analyses {
			kinds[i], _ = engine.ParseAnalysis(name)
		}
		opts = append(opts, engine.WithAnalyses(kinds...))
	}
	rep, err := engine.New(tr, opts...).Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// randomAnalyzeBody draws an analyze request: a random subset of every
// analysis (empty = the default suite) in random order with an
// occasional repeat, under one of params.
func randomAnalyzeBody(rng *rand.Rand, params []map[string]any) string {
	req := map[string]any{}
	for k, v := range params[rng.Intn(len(params))] {
		req[k] = v
	}
	var names []string
	for _, name := range engine.AnalysisNames() {
		if rng.Intn(3) == 0 {
			names = append(names, name)
		}
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if len(names) > 0 && rng.Intn(4) == 0 {
		names = append(names, names[rng.Intn(len(names))])
	}
	if len(names) > 0 {
		req["analyses"] = names
	}
	b, _ := json.Marshal(req)
	return string(b)
}

// TestAssembledReportsMatchEngine is the byte-identity property of the
// fragment cache: random analysis subsets under random parameters,
// issued in random orders so later requests assemble from fragments
// earlier ones left (partly or wholly), answer exactly json.Marshal of
// a direct engine run. Three vantages: a default cache; a cache so
// small that fragments are evicted between a request's lookup and its
// assembly, or never fit at all; and a non-owner of a 3-replica fleet,
// whose fragments come from proxied analyzes of only the missing
// analyses.
func TestAssembledReportsMatchEngine(t *testing.T) {
	tr := testTrace(12, 80)
	params := []map[string]any{
		{},
		{"block_size": 128, "time_intervals": 0, "windows": []uint64{1, 3, 1 << 40},
			"capacities": []int{1, 3, 100000}},
		{"heatmap_lo": 0x2000_0000, "heatmap_hi": 0x2000_2000, "heatmap_rows": 3, "heatmap_cols": 5,
			"working_set_intervals": 3, "page_size": 8192, "roi_cover_pct": 50},
		{"windows": []uint64{math.MaxUint64}, "capacities": []int{7}, "time_intervals": 5,
			"heatmap_rows": 1, "heatmap_cols": 1},
	}

	_, plain := newTestServer(t, Config{})
	_, tiny := newTestServer(t, Config{ResultCacheBytes: 1500})
	uploadTrace(t, plain.URL, tr)
	uploadTrace(t, tiny.URL, tr)
	reps := newFleet(t, 3)
	id := uploadTrace(t, reps[0].url(), tr).ID
	_, others := ownersOf(t, reps, id, 2)

	for _, v := range []struct{ name, url string }{
		{"default cache", plain.URL},
		{"tiny cache", tiny.URL},
		{"fleet non-owner", others[0].url()},
	} {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var bodies []string
			for i := 0; i < 24; i++ {
				bodies = append(bodies, randomAnalyzeBody(rng, params))
			}
			bodies = append(bodies, "", `{"analyses":["functions","mrc"]}`, `{"analyses":["mrc","functions","mrc"]}`)
			for round := 0; round < 2; round++ {
				rng.Shuffle(len(bodies), func(i, j int) { bodies[i], bodies[j] = bodies[j], bodies[i] })
				for _, body := range bodies {
					resp, served := postAnalyze(t, v.url, id, body)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("analyze %s: status %d: %s", body, resp.StatusCode, served)
					}
					if want := engineReport(t, tr, body); !bytes.Equal(served, want) {
						t.Fatalf("analyze %s (round %d, cache %q): assembled report differs from the engine's (%d vs %d bytes)",
							body, round, resp.Header.Get("X-Memgazed-Cache"), len(served), len(want))
					}
				}
			}
		})
	}
}

// TestFragmentCoalescing pins per-fragment coalescing: a functions+mrc
// request arriving while a default-suite request on the same uncached
// trace is computing joins that run's functions and mrc fragments
// instead of starting its own, so each analysis runs exactly once.
func TestFragmentCoalescing(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2})
	tr := testTrace(8, 60)
	id := uploadTrace(t, hs.URL, tr).ID

	// Room for both requests' runs, so a second run — the failure this
	// test catches — is recorded rather than blocked.
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
	s.hookAnalyzeStart = func() { started <- struct{}{}; <-gate }
	var joins atomic.Int64
	s.flights.hookJoined = func() { joins.Add(1) }

	var wg sync.WaitGroup
	bodies := []string{"", `{"analyses":["mrc","functions"]}`}
	served := make([][]byte, len(bodies))
	codes := make([]int, len(bodies))
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := postAnalyze(t, hs.URL, id, bodies[i])
			codes[i], served[i] = resp.StatusCode, b
		}()
	}
	post(0)
	<-started // the default suite leads every fragment and is held
	post(1)
	deadline := time.Now().Add(10 * time.Second)
	for joins.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the subset request never joined the running suite")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	s.hookAnalyzeStart = nil
	s.flights.hookJoined = nil

	for i, body := range bodies {
		if codes[i] != http.StatusOK {
			t.Fatalf("analyze %q: status %d: %s", body, codes[i], served[i])
		}
		if want := engineReport(t, tr, body); !bytes.Equal(served[i], want) {
			t.Errorf("analyze %q differs from the engine's report", body)
		}
	}
	for _, a := range []string{"functions", "mrc"} {
		if n := s.metrics.analysis[a].count.Load(); n != 1 {
			t.Errorf("%s ran %d times, want 1", a, n)
		}
	}
	if c := s.metrics.coalesced.Load(); c != 1 {
		t.Errorf("coalesced = %d, want 1", c)
	}
	if len(started) != 0 {
		t.Error("the subset request started an engine run of its own")
	}
}

// TestSubsetHitReadsNoTrace pins hit-before-fetch on the durable tier:
// once a default-suite analyze has cached its fragments and the trace
// has left the hot tier, a functions+mrc request is a cache hit that
// neither promotes the trace nor runs the engine, and its bytes are the
// engine's.
func TestSubsetHitReadsNoTrace(t *testing.T) {
	s, hs := newDurableServer(t, t.TempDir(), Config{StoreBudgetBytes: 1})
	t.Cleanup(func() { hs.Close(); s.Close() })
	tr := testTrace(8, 60)
	id := uploadTrace(t, hs.URL, tr).ID
	if resp, b := postAnalyze(t, hs.URL, id, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("default analyze: status %d: %s", resp.StatusCode, b)
	}
	uploadTrace(t, hs.URL, testTrace(9, 60)) // a 1-byte budget keeps only the newest
	if s.store.Contains(id) {
		t.Fatal("the analysed trace is still hot")
	}

	promotions, runs := s.metrics.promotions.Load(), s.metrics.analysis["functions"].count.Load()
	const body = `{"analyses":["functions","mrc"]}`
	resp, served := postAnalyze(t, hs.URL, id, body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Memgazed-Cache") != "hit" {
		t.Fatalf("subset analyze: status %d, cache %q, want a 200 hit", resp.StatusCode, resp.Header.Get("X-Memgazed-Cache"))
	}
	if got := s.metrics.promotions.Load(); got != promotions {
		t.Errorf("promotions %d -> %d: the hit read the trace", promotions, got)
	}
	if s.store.Contains(id) {
		t.Error("the hit promoted the trace into the hot tier")
	}
	if got := s.metrics.analysis["functions"].count.Load(); got != runs {
		t.Error("the hit ran the engine")
	}
	if want := engineReport(t, tr, body); !bytes.Equal(served, want) {
		t.Error("the assembled subset differs from the engine's report")
	}
}

// TestHitBeforeFetchErrors pins that checking the cache before reading
// the trace changes no error answer: a tombstoned id answers 410 and a
// memory-only id evicted from the hot tier answers 404, even while its
// fragments are still cached.
func TestHitBeforeFetchErrors(t *testing.T) {
	const body = `{"analyses":["functions","mrc"]}`
	t.Run("tombstoned", func(t *testing.T) {
		s, hs := newDurableServer(t, t.TempDir(), Config{})
		t.Cleanup(func() { hs.Close(); s.Close() })
		id := uploadTrace(t, hs.URL, testTrace(8, 60)).ID
		postAnalyze(t, hs.URL, id, body)
		resp, b := doReq(t, http.MethodDelete, hs.URL+"/v1/traces/"+id, nil, nil)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete: status %d: %s", resp.StatusCode, b)
		}
		resp, b = postAnalyze(t, hs.URL, id, body)
		if resp.StatusCode != http.StatusGone || errCode(t, b) != ErrCodeTraceDeleted {
			t.Errorf("analyze after delete = %d %s, want 410 %s", resp.StatusCode, b, ErrCodeTraceDeleted)
		}
	})
	t.Run("evicted from memory", func(t *testing.T) {
		s, hs := newTestServer(t, Config{StoreBudgetBytes: 1})
		id := uploadTrace(t, hs.URL, testTrace(8, 60)).ID
		if resp, b := postAnalyze(t, hs.URL, id, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: status %d: %s", resp.StatusCode, b)
		}
		uploadTrace(t, hs.URL, testTrace(9, 60)) // evicts the first: nothing else holds it
		cached := 0
		s.results.mu.Lock()
		for key := range s.results.entries {
			if strings.HasPrefix(key, id+"|") {
				cached++
			}
		}
		s.results.mu.Unlock()
		if cached != 2 {
			t.Fatalf("%d fragments cached, want 2", cached)
		}
		resp, b := postAnalyze(t, hs.URL, id, body)
		if resp.StatusCode != http.StatusNotFound || errCode(t, b) != ErrCodeTraceNotFound {
			t.Errorf("analyze after eviction = %d %s, want 404 %s", resp.StatusCode, b, ErrCodeTraceNotFound)
		}
	})
}
