package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
)

// Paging bounds of GET /v1/traces.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// TraceList is the paged answer of GET /v1/traces: resident trace
// metadata in id order. Next, when set, is the cursor of the following
// page — pass it back as ?after=.
type TraceList struct {
	Traces []TraceInfo `json:"traces"`
	Next   string      `json:"next,omitempty"`
}

// handleList is GET /v1/traces: enumerate the corpus so clients can
// pick analyze and diff targets without out-of-band bookkeeping. Pages
// are keyed by id (?after=<id>, ?limit=<n>): ids are content hashes, so
// the cursor is stable across inserts and evictions; ?tier=hot|disk
// narrows the listing to one storage tier. With a durable tier the
// listing comes from the disk index — the full corpus, not just what
// happens to be hot — with each entry's tier telling clients whether a
// read will hit memory; entries never decode MGTR bytes, the stored
// Meta blob carries everything. An external listing scatter-gathers
// every live peer's local page and merges in id order, preserving the
// cursor contract across the fleet; a fleet-internal request scopes to
// this replica's own corpus (that is the scatter primitive), as does a
// cluster of one, which has no peers to gather from.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := defaultListLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "invalid limit %q", v)
			return
		}
		limit = min(n, maxListLimit)
	}
	after := r.URL.Query().Get("after")
	tier := r.URL.Query().Get("tier")
	switch tier {
	case "", tierHot, tierDisk:
	default:
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "invalid tier %q (want %q or %q)", tier, tierHot, tierDisk)
		return
	}

	local, localMore := pageInfos(s.localInfos(tier), after, limit)
	var peers []string
	if !isInternal(r) {
		peers = s.cluster.UpPeers()
	}
	if len(peers) == 0 {
		// Nothing to gather: the merged page is the local page.
		s.metrics.clusterLocal["list"].Add(1)
		writeJSON(w, http.StatusOK, traceListOf(local, localMore))
		return
	}
	s.metrics.clusterProxied["list"].Add(1)
	s.scatterList(w, r, peers, local, localMore, after, limit, tier)
}

// localInfos snapshots this replica's own corpus as id-sorted
// TraceInfos, optionally narrowed to one tier.
func (s *Server) localInfos(tier string) []TraceInfo {
	var infos []TraceInfo
	if s.disk != nil {
		entries := s.disk.List()
		infos = make([]TraceInfo, 0, len(entries))
		for _, e := range entries {
			t := tierDisk
			if s.store.Contains(e.ID) {
				t = tierHot
			}
			if tier != "" && t != tier {
				continue
			}
			infos = append(infos, diskInfo(e.ID, e.Meta, e.Size, t))
		}
	} else if tier != tierDisk { // memory-only: every resident trace is hot
		infos = s.store.List()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// pageInfos applies the (?after, ?limit) cursor to an id-sorted
// listing, reporting whether entries remain past the page.
func pageInfos(infos []TraceInfo, after string, limit int) ([]TraceInfo, bool) {
	if after != "" {
		i := sort.Search(len(infos), func(i int) bool { return infos[i].ID > after })
		infos = infos[i:]
	}
	if len(infos) > limit {
		return infos[:limit], true
	}
	return infos, false
}

// traceListOf shapes a page into the wire answer: Next is the last
// returned id whenever entries remain, and an empty corpus lists as
// [], not null.
func traceListOf(page []TraceInfo, more bool) TraceList {
	out := TraceList{Traces: page}
	if more && len(page) > 0 {
		out.Next = page[len(page)-1].ID
	}
	if out.Traces == nil {
		out.Traces = []TraceInfo{}
	}
	return out
}

// scatterList merges this replica's local page with one local page from
// every live peer in peers. Each source returns at most limit entries
// after the same cursor, so the merged, deduplicated, re-truncated page
// is exactly what a single corpus holding the union would answer — the
// cursor is the last returned id either way, which keeps ?after
// pagination exact across the fleet. Peers that fail mid-gather are skipped: the listing
// is best-effort over live replicas (and the transport marks them down
// for the prober to readmit), matching the routing rule that a down
// peer's keys are unreachable anyway.
func (s *Server) scatterList(w http.ResponseWriter, r *http.Request, peers []string, local []TraceInfo, localMore bool, after string, limit int, tier string) {
	type peerPage struct {
		traces []TraceInfo
		more   bool
	}
	pages := make([]peerPage, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			q := url.Values{}
			q.Set("limit", strconv.Itoa(limit))
			if after != "" {
				q.Set("after", after)
			}
			if tier != "" {
				q.Set("tier", tier)
			}
			resp, err := s.cluster.Roundtrip(r.Context(), p, http.MethodGet, "/v1/traces?"+q.Encode(), nil, nil)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				return
			}
			var tl TraceList
			if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
				return
			}
			pages[i] = peerPage{traces: tl.Traces, more: tl.Next != ""}
		}(i, p)
	}
	wg.Wait()

	merged := make([]TraceInfo, 0, len(local)+len(peers)*8)
	merged = append(merged, local...)
	more := localMore
	for _, pg := range pages {
		merged = append(merged, pg.traces...)
		more = more || pg.more
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].ID != merged[j].ID {
			return merged[i].ID < merged[j].ID
		}
		// Replicated ownership lists every id from each of its K owners;
		// sort the hot-tier copy first so dedup below keeps it — the
		// listing then tells clients a read will hit memory somewhere.
		return merged[i].Tier == tierHot && merged[j].Tier != tierHot
	})
	out := merged[:0]
	for _, in := range merged {
		// Every id appears once per live owner (replication factor K),
		// plus possibly a pre-fleet stray — keep one entry, the hot-tier
		// one when any copy is hot (the sort above put it first).
		if len(out) > 0 && out[len(out)-1].ID == in.ID {
			continue
		}
		out = append(out, in)
	}
	if len(out) > limit {
		out = out[:limit]
		more = true
	}
	writeJSON(w, http.StatusOK, traceListOf(out, more))
}
