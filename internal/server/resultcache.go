package server

import (
	"container/list"
	"encoding/json"
	"strings"
	"sync"
)

// fragment is one result-cache value: a list of exact JSON texts. An
// analysis fragment holds the values of the Report identity fields
// followed by the values of the fields its analysis fills, in
// declaration order (engine.IdentityFields, engine.Analysis.Fields); a
// cached diff is a single text, the whole DiffReport.
type fragment []json.RawMessage

// rcEntryOverhead is what the cache charges each entry beyond its key
// and value bytes: the list element, the entry, its map slot, and the
// value's slice header — so a budget full of tiny fragments still
// bounds the memory the bookkeeping itself takes.
const rcEntryOverhead = 160

// rcEntry is one cached fragment.
type rcEntry struct {
	key  string
	val  fragment
	size int64 // charged bytes (entrySize)
}

// entrySize is the budget charge of one entry: key and value bytes,
// one slice header per JSON text, and the fixed per-entry overhead.
func entrySize(key string, val fragment) int64 {
	n := int64(len(key)) + rcEntryOverhead
	for _, m := range val {
		n += int64(len(m)) + 24
	}
	return n
}

// resultCache is a byte-bounded LRU of analysis fragments and finished
// diffs. Analysis keys are "id|digest|analysis" — the trace id, the
// SHA-256 of the request parameters, the analysis name — and diff keys
// "a|b|digest". Values are the exact JSON bytes a response is
// assembled from, so a repeat query is a few map lookups and writes,
// byte-identical to the original response. A single mutex suffices:
// the critical sections are tiny next to an engine run.
type resultCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
}

// newResultCache creates a cache evicting least-recently-used entries
// once their charged bytes exceed budget; budget <= 0 disables caching.
func newResultCache(budget int64) *resultCache {
	return &resultCache{
		budget:  budget,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// Get returns the fragment cached under key, bumping its recency.
func (c *resultCache) Get(key string) (fragment, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*rcEntry).val, true
}

// Put stores a fragment. One larger than the whole budget is not
// cached at all (it would immediately evict everything else).
func (c *resultCache) Put(key string, val fragment) {
	size := entrySize(key, val)
	if c.budget <= 0 || size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*rcEntry)
		c.used += size - e.size
		e.val, e.size = val, size
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&rcEntry{key: key, val: val, size: size})
		c.used += size
	}
	for c.used > c.budget {
		el := c.lru.Back()
		if el == nil {
			return
		}
		c.remove(el)
	}
}

// remove drops one entry; the caller holds c.mu.
func (c *resultCache) remove(el *list.Element) {
	e := el.Value.(*rcEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.used -= e.size
}

// InvalidateTrace drops every entry touching trace id: analysis
// fragments ("id|digest|analysis") by prefix, and diffs ("a|b|digest")
// where id is either side. Ids are hex content hashes, so "|" never
// appears inside a segment and the substring test cannot
// false-positive.
func (c *resultCache) InvalidateTrace(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if strings.HasPrefix(key, id+"|") || strings.Contains(key, "|"+id+"|") {
			c.remove(el)
		}
	}
}

// UsedBytes returns the charged bytes of every resident entry.
func (c *resultCache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of cached entries: fragments plus diffs.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
