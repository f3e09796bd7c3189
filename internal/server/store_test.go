package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/memgaze/memgaze-go/internal/trace"
)

func tinyTrace(seed int) *trace.Trace {
	tr := &trace.Trace{Module: fmt.Sprintf("m%d", seed)}
	tr.SetSamples(&trace.Sample{
		Records: []trace.Record{{IP: uint64(seed), Addr: uint64(seed) * 64, Proc: "p"}},
	})
	return tr
}

// TestStoreBudgetEviction pins the accounting: inserts beyond the
// budget evict least-recently-used traces, recency is bumped by Get,
// and the newest insert is never its own victim.
func TestStoreBudgetEviction(t *testing.T) {
	s := NewStore(300)
	for i := 0; i < 3; i++ {
		if !s.Put(fmt.Sprintf("id%d", i), tinyTrace(i), 100, time.Now()) {
			t.Fatalf("put %d not added", i)
		}
	}
	if s.Len() != 3 || s.UsedBytes() != 300 {
		t.Fatalf("len=%d used=%d", s.Len(), s.UsedBytes())
	}
	// Touch id0 so it is MRU; the next insert must evict one of the
	// others.
	if _, _, ok := s.Get("id0"); !ok {
		t.Fatal("id0 missing")
	}
	s.Put("id3", tinyTrace(3), 100, time.Now())
	if s.Len() != 3 || s.UsedBytes() != 300 {
		t.Fatalf("after eviction: len=%d used=%d", s.Len(), s.UsedBytes())
	}
	if s.Evictions() != 1 {
		t.Fatalf("evictions = %d", s.Evictions())
	}
	if _, _, ok := s.Get("id0"); !ok {
		t.Error("recently used id0 was evicted")
	}
	if _, _, ok := s.Get("id3"); !ok {
		t.Error("newest insert was evicted")
	}

	// An oversized trace still lands (never evicts itself), pushing the
	// rest out.
	s.Put("big", tinyTrace(9), 1000, time.Now())
	if _, _, ok := s.Get("big"); !ok {
		t.Error("oversized trace rejected")
	}
	if s.Len() != 1 {
		t.Errorf("len = %d after oversized insert, want 1", s.Len())
	}

	if !s.Delete("big") || s.UsedBytes() != 0 || s.Len() != 0 {
		t.Errorf("delete accounting: used=%d len=%d", s.UsedBytes(), s.Len())
	}
	if s.Delete("big") {
		t.Error("double delete reported true")
	}
}

// TestStoreDedup pins content-hash deduplication: same id twice is one
// resident entry.
func TestStoreDedup(t *testing.T) {
	s := NewStore(0)
	if !s.Put("x", tinyTrace(1), 10, time.Now()) {
		t.Fatal("first put")
	}
	if s.Put("x", tinyTrace(1), 10, time.Now()) {
		t.Fatal("second put of same id reported added")
	}
	if s.Len() != 1 || s.UsedBytes() != 10 {
		t.Fatalf("len=%d used=%d", s.Len(), s.UsedBytes())
	}
}

// TestStoreConcurrent is the -race stress test: concurrent Put, Get,
// Meta, and Delete over a small id space under a tight budget, then an
// accounting audit — used bytes and count must match a sequential scan.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore(50 * 64)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("id%d", rng.Intn(100))
				switch rng.Intn(4) {
				case 0:
					s.Put(id, tinyTrace(i), 64, time.Now())
				case 1:
					s.Get(id)
				case 2:
					s.Meta(id)
				case 3:
					s.Delete(id)
				}
			}
		}()
	}
	wg.Wait()

	var used int64
	var count int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, el := range sh.entries {
			used += el.Value.(*storeEntry).size
			count++
		}
		if sh.lru.Len() != len(sh.entries) {
			t.Errorf("shard %d: lru %d entries %d", i, sh.lru.Len(), len(sh.entries))
		}
		sh.mu.Unlock()
	}
	if used != s.UsedBytes() || count != s.Len() {
		t.Errorf("accounting drift: scan used=%d count=%d vs used=%d count=%d",
			used, count, s.UsedBytes(), s.Len())
	}
}

// TestResultCacheLRU pins the byte-bounded LRU of fragments: recency
// order, over-budget values, and exact accounting of replacements and
// invalidation, every entry charged entrySize.
func TestResultCacheLRU(t *testing.T) {
	val := func(n int) fragment { return fragment{make([]byte, n)} }
	unit := entrySize("a|d|f", val(40)) // every such key with a 40-byte value
	c := newResultCache(2*unit + unit/2)
	c.Put("a|d|f", val(40))
	c.Put("b|d|f", val(40))
	if _, ok := c.Get("a|d|f"); !ok { // bump a
		t.Fatal("a missing")
	}
	c.Put("c|d|f", val(40)) // evicts b (LRU)
	if _, ok := c.Get("b|d|f"); ok {
		t.Error("b survived over-budget insert")
	}
	if _, ok := c.Get("a|d|f"); !ok {
		t.Error("recently used a evicted")
	}
	c.Put("huge", val(int(3*unit))) // larger than budget: not cached
	if _, ok := c.Get("huge"); ok {
		t.Error("over-budget value cached")
	}
	c.Put("a|d|f", val(60)) // replace: accounting must follow
	if want := entrySize("a|d|f", val(60)) + unit; c.UsedBytes() != want {
		t.Errorf("used = %d, want %d", c.UsedBytes(), want)
	}
	c.InvalidateTrace("a")
	if _, ok := c.Get("a|d|f"); ok {
		t.Error("a survived invalidation")
	}
	if c.Len() != 1 || c.UsedBytes() != unit { // only c remains
		t.Errorf("len = %d, used = %d; want 1, %d", c.Len(), c.UsedBytes(), unit)
	}
}

// TestResultCacheBudgetBoundsBookkeeping fills a small budget with many
// tiny fragments — the shape of a fragment cache — and checks that the
// charged bytes never exceed the budget and that they count each
// entry's key and overhead, not only its few value bytes.
func TestResultCacheBudgetBoundsBookkeeping(t *testing.T) {
	const budget = 4096
	c := newResultCache(budget)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("%064x|%064x|functions", i, i)
		c.Put(key, fragment{json.RawMessage(`1`), json.RawMessage(`null`)})
		if used := c.UsedBytes(); used > budget {
			t.Fatalf("after %d puts: used %d > budget %d", i+1, used, budget)
		}
	}
	// 5 value bytes each would fit all 500; keys and overhead fit few.
	if most := budget / (2*64 + 2 + rcEntryOverhead); c.Len() == 0 || c.Len() > most {
		t.Errorf("%d entries resident under a %d-byte budget, want 1..%d", c.Len(), budget, most)
	}
}
