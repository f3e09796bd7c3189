package server

import (
	"io"
	"net/http"
	"time"
)

// Anti-entropy repair: the background loop that makes replicated
// ownership converge after failures. The upload fan-out is best-effort
// (quorum = 1), so an owner that was down during an upload — or a
// fan-out that hit a transport error — leaves an id under-replicated;
// a DELETE likewise tombstones only the owners that were live. Each
// replica therefore periodically walks its own corpus and, for every id
// it co-owns, probes the id's other owners: a missing copy is pushed, a
// peer's tombstone is pulled (deleting the local copy — tombstones
// win), and this replica's own tombstones are pushed to any owner still
// serving the content. Every replica runs the same scan over the same
// deterministic owner sets, so the fleet converges with no coordinator:
// within one repair round of every owner being live simultaneously,
// every id is on all K owners or tombstoned on all K.

// repairStats is one repair round's outcome, returned by repairNow for
// tests and logged nowhere — the metrics carry the counters.
type repairStats struct {
	scanned          int // local live ids co-owned by this replica
	pushedCopies     int // copies pushed to owners missing them
	pushedTombstones int // local tombstones pushed to owners still serving
	pulledTombstones int // local copies deleted because an owner had a tombstone
	underReplicated  int // ids with at least one owner down or still missing
}

// repairLoop runs repairNow every interval until the server closes.
func (s *Server) repairLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.repairNow()
		}
	}
}

// repairNow runs one synchronous repair round over this replica's own
// corpus. Probes and pushes go through the cluster transport on the
// server lifetime context, so a down peer fails fast (ErrPeerDown) and
// shutdown aborts the round.
func (s *Server) repairNow() repairStats {
	var st repairStats
	if s.cluster.Replication() < 2 {
		return st
	}
	for _, id := range s.localIDs() {
		owners, mine := s.coOwners(id)
		if !mine {
			continue // not ours: the id's own owners repair it
		}
		st.scanned++
		short, tombstoned := false, false
		for _, o := range owners {
			if !s.cluster.Up(o) {
				short = true // can't verify the copy; count and retry next round
				continue
			}
			switch s.peerProbe(o, id) {
			case http.StatusOK:
				// The owner has the copy; nothing to do.
			case http.StatusNotFound:
				if s.pushCopy(o, id) {
					st.pushedCopies++
					s.metrics.replRepairCopies.Add(1)
				} else {
					short = true
				}
			case http.StatusGone:
				// The owner holds a tombstone: the content was deleted
				// while this replica was out. Tombstones win — drop the
				// local copy rather than resurrect theirs.
				if status, _ := s.deleteLocal(id); status == http.StatusNoContent {
					st.pulledTombstones++
					s.metrics.replRepairTombs.Add(1)
				}
				tombstoned = true
			default:
				short = true // transport failure or a peer in a bad state
			}
			if tombstoned {
				break // deleted locally; stop probing this id
			}
		}
		if short && !tombstoned {
			st.underReplicated++
		}
	}
	// Push this replica's durable tombstones to any owner still serving
	// the content — the rejoined-stale-owner half of convergence.
	// Memory-only mode has no durable tombstones to propagate.
	if s.disk != nil {
		for _, id := range s.disk.Tombstones() {
			owners, mine := s.coOwners(id)
			if !mine {
				continue
			}
			for _, o := range owners {
				if !s.cluster.Up(o) {
					continue
				}
				if s.peerProbe(o, id) == http.StatusOK {
					if s.pushTombstone(o, id) {
						st.pushedTombstones++
						s.metrics.replRepairTombs.Add(1)
					}
				}
			}
		}
	}
	s.metrics.replUnderReplicated.Store(int64(st.underReplicated))
	return st
}

// coOwners resolves id's owner set from this replica's point of view:
// the other owners, and whether this replica is one of them.
func (s *Server) coOwners(id string) (others []string, mine bool) {
	for _, o := range s.cluster.Owners(id) {
		if s.cluster.IsSelf(o) {
			mine = true
		} else {
			others = append(others, o)
		}
	}
	return others, mine
}

// localIDs snapshots this replica's live corpus ids: the durable index
// when one exists (the full corpus), the hot tier otherwise.
func (s *Server) localIDs() []string {
	if s.disk != nil {
		entries := s.disk.List()
		ids := make([]string, len(entries))
		for i, e := range entries {
			ids[i] = e.ID
		}
		return ids
	}
	infos := s.store.List()
	ids := make([]string, len(infos))
	for i, in := range infos {
		ids[i] = in.ID
	}
	return ids
}

// peerProbe asks one owner whether it holds id: a fleet-internal HEAD
// on the raw endpoint — headers only, no payload, no promotion, no
// recency bump on the peer. Returns the HTTP status, or 0 on transport
// failure (the transport marks the peer down; the prober readmits it).
func (s *Server) peerProbe(peer, id string) int {
	resp, err := s.cluster.Roundtrip(s.baseCtx, peer, http.MethodHead, "/v1/traces/"+id+"/raw", nil, nil)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// pushCopy replicates the local copy of id to one owner missing it, as
// a fleet-internal upload stamped with the original upload time. The
// probe-then-push order matters: an unconditional push would resurrect
// a trace the owner had tombstoned (Put clears tombstones), so copies
// are pushed only at owners that answered 404 — never 410.
func (s *Server) pushCopy(peer, id string) bool {
	enc, uploaded, ok := s.localEncoded(id)
	if !ok {
		return false // deleted between the scan and now; next round settles it
	}
	hdr := http.Header{
		"Content-Type": []string{ContentTypeTrace},
		headerUploaded: []string{uploaded.UTC().Format(time.RFC3339Nano)},
	}
	resp, err := s.cluster.Roundtrip(s.baseCtx, peer, http.MethodPost, "/v1/traces", hdr, enc)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK
}

// localEncoded returns id's canonical MGTR bytes and upload time from
// the local tiers: the durable copy verbatim (no decode), else the hot
// copy re-encoded.
func (s *Server) localEncoded(id string) ([]byte, time.Time, bool) {
	if s.disk != nil {
		b, m, err := s.disk.Get(id)
		if err != nil {
			return nil, time.Time{}, false
		}
		return b, m.Uploaded, true
	}
	tr, _, uploaded, ok := s.store.Meta(id)
	if !ok {
		return nil, time.Time{}, false
	}
	enc, err := tr.Encode()
	if err != nil {
		return nil, time.Time{}, false
	}
	return enc, uploaded, true
}

// pushTombstone propagates a local tombstone to one owner still serving
// the content, as a fleet-internal DELETE. 204 tombstones it there; 410
// means someone else already did — both count as propagated.
func (s *Server) pushTombstone(peer, id string) bool {
	resp, err := s.cluster.Roundtrip(s.baseCtx, peer, http.MethodDelete, "/v1/traces/"+id, nil, nil)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusGone
}
