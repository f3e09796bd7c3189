package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/memgaze/memgaze-go/internal/cluster"
	"github.com/memgaze/memgaze-go/internal/pt"
)

// This file is the server side of cluster routing under replicated
// ownership: deciding, per request, whether this replica is among the
// addressed key's owners, fanning writes out to the other owners, and
// failing reads over along the key's rendezvous order when the leading
// owner is down. The ring itself (rendezvous hashing, membership, the
// retrying transport) lives in internal/cluster; here is only the HTTP
// glue — relay semantics, the peer_unavailable contract, and the
// replica-local result cache in front of proxied analyses. See
// DESIGN.md "Cluster routing" and "Replicated ownership".

// isInternal reports whether r came from a fleet peer. Internal
// requests are always served from the local corpus: a peer routed the
// request here because this replica owns the key (or because it is
// scatter-gathering every replica's local listing, or fanning out a
// replication write), so re-routing would loop.
func isInternal(r *http.Request) bool { return r.Header.Get(cluster.PeerHeader) != "" }

// headerUploaded carries the original upload time on fleet-internal
// writes — fan-out copies and repair pushes — so every replica of a
// trace agrees on its metadata. Honoured only on internal requests;
// clients cannot backdate uploads.
const headerUploaded = "X-Memgazed-Uploaded"

// internalUploadTime extracts the propagated upload time of an internal
// replication write; zero means "stamp now" (a direct client upload, or
// a peer old enough not to send the header).
func internalUploadTime(r *http.Request) time.Time {
	if !isInternal(r) {
		return time.Time{}
	}
	if v := r.Header.Get(headerUploaded); v != "" {
		if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
			return t
		}
	}
	return time.Time{}
}

// routePlan is the routing decision for one key-addressed request under
// replicated ownership: serve from the local corpus when this replica
// is an owner, with the live remote owners — in rendezvous order — as
// the forwarding targets or miss fallbacks.
type routePlan struct {
	// local: this replica is in the key's owner set; serve (or store)
	// locally first.
	local bool
	// remotes are the other live owners in rendezvous order: the write
	// fan-out set when local, the failover-walk candidates when not.
	remotes []string
}

// ownerPlan computes the replicated routing plan for id without
// touching the per-endpoint metrics (diff sides account as proxied
// analyzes inside sideBytes instead).
func (s *Server) ownerPlan(id string) routePlan {
	var plan routePlan
	for _, o := range s.cluster.Owners(id) {
		if s.cluster.IsSelf(o) {
			plan.local = true
		} else if s.cluster.Up(o) {
			plan.remotes = append(plan.remotes, o)
		}
	}
	return plan
}

// planRoute makes the routing decision for a key-addressed request and
// counts it into the cluster routing-split metrics under endpoint. ok
// is false when no owner of the key is live anywhere — the
// peer_unavailable contract (writeNoLiveOwner) is then the only answer
// left, modulo locally cached results.
func (s *Server) planRoute(r *http.Request, endpoint, id string) (plan routePlan, ok bool) {
	if s.cluster == nil || isInternal(r) {
		return routePlan{local: true}, true
	}
	plan = s.ownerPlan(id)
	if plan.local {
		s.metrics.clusterLocal[endpoint].Add(1)
	} else {
		s.metrics.clusterProxied[endpoint].Add(1)
	}
	return plan, plan.local || len(plan.remotes) > 0
}

// writeNoLiveOwner answers the all-owners-down form of the
// peer_unavailable contract: every replica in this key's owner set is
// down, so nobody can serve it until one rejoins (the prober readmits
// automatically, and the repair loop heals any divergence).
func (s *Server) writeNoLiveOwner(w http.ResponseWriter, id string) {
	writeError(w, http.StatusServiceUnavailable, ErrCodePeerUnavailable,
		"every replica owning trace %q is down", id)
}

// writePeerUnavailable answers the transport-failure form of the
// peer_unavailable contract: the owners believed live did not answer.
func (s *Server) writePeerUnavailable(w http.ResponseWriter, peer string, err error) {
	writeError(w, http.StatusServiceUnavailable, ErrCodePeerUnavailable,
		"replica %s did not answer and no other owner of this key is live: %v", peer, err)
}

// relayFirst forwards the request verbatim — method, path, query, and
// headers, so conditional-request headers like If-None-Match keep
// working through the proxy — to the first candidate that answers,
// walking the key's live owners in rendezvous order. A 404 cascades to
// the next owner (an owner that missed the upload fan-out simply does
// not have the copy yet; another one does), as does a transport
// failure; any other response — 200, 304, 410, 503 — is the answer and
// relays as-is. All-owners-404 relays the last 404 (the fleet genuinely
// never stored the key); nobody answering at all is peer_unavailable.
func (s *Server) relayFirst(w http.ResponseWriter, r *http.Request, candidates []string, id string) {
	path := r.URL.Path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	var notFound *http.Response // last drained 404, replayed if nobody has the key
	var notFoundBody []byte
	var lastPeer string
	var lastErr error
	for _, p := range candidates {
		resp, err := s.cluster.Roundtrip(r.Context(), p, r.Method, path, r.Header, nil)
		if err != nil {
			lastPeer, lastErr = p, err
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			notFound, notFoundBody = resp, b
			continue
		}
		defer resp.Body.Close()
		relayResponse(w, resp)
		return
	}
	if notFound != nil {
		for k, vs := range notFound.Header {
			w.Header()[k] = vs
		}
		w.WriteHeader(notFound.StatusCode)
		w.Write(notFoundBody)
		return
	}
	if lastErr != nil {
		s.writePeerUnavailable(w, lastPeer, lastErr)
		return
	}
	s.writeNoLiveOwner(w, id)
}

// relayResponse copies an owner's answer — status, headers, body — onto
// the client connection unmodified, so proxied requests are
// indistinguishable from local ones (ETags, error envelopes, and cache
// headers all pass through).
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		w.Header()[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// relayError carries a non-200 owner response through the singleflight
// layer so writeAnalysisResult can replay it verbatim — the owner's 404
// or 410 envelope is the answer, not a proxy failure.
type relayError struct {
	status      int
	contentType string
	body        []byte
}

func (e *relayError) Error() string {
	return fmt.Sprintf("owner answered %d: %s", e.status, e.body)
}

func (e *relayError) write(w http.ResponseWriter) {
	if e.contentType != "" {
		w.Header().Set("Content-Type", e.contentType)
	}
	w.WriteHeader(e.status)
	w.Write(e.body)
}

// peerDownError carries a proxy transport failure through the
// singleflight layer; writeAnalysisResult maps it onto the
// peer_unavailable contract.
type peerDownError struct {
	peer  string
	cause error
}

func (e *peerDownError) Error() string {
	return fmt.Sprintf("peer %s unavailable: %v", e.peer, e.cause)
}

func (e *peerDownError) Unwrap() error { return e.cause }

// errNoLiveOwner is the cause carried when an analyze has no live owner
// left to ask.
var errNoLiveOwner = fmt.Errorf("no live owner")

// proxyAnalyzeRequest handles an analyze whose trace this replica does
// not hold: the request body parses locally (its errors are ours to
// answer — the same 400s a local analyze gives), and the report comes
// from the key's live owners through the replica-local result cache and
// the singleflight group, so repeated proxied analyses are local cache
// hits and concurrent ones collapse to one owner round-trip. owners may
// be empty — a cached report still serves with every owner down; only
// an uncached one is peer_unavailable then.
func (s *Server) proxyAnalyzeRequest(w http.ResponseWriter, r *http.Request, owners []string, id string) {
	var req AnalyzeRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "reading body: %v", err)
		return
	}
	if len(body) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "request: %v", err)
			return
		}
	}
	if _, err := req.engineOptions(); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeUnknownAnalysis, "%v", err)
		return
	}
	key := req.cacheKey(id)
	if b, ok := s.results.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Memgazed-Cache", "hit")
		w.Write(b)
		return
	}
	s.metrics.cacheMisses.Add(1)
	b, err, joined := s.flights.Do(r.Context(), key, func() ([]byte, error) {
		return s.fetchRemoteAnalysis(owners, "/v1/traces/"+id+"/analyze", body, key)
	})
	if joined {
		s.metrics.coalesced.Add(1)
	}
	s.writeAnalysisResult(w, b, err)
}

// fetchRemoteAnalysis is the proxied-analyze singleflight leader's
// work: POST to the key's live owners in rendezvous order — cascading
// past transport failures and 404s (an owner that missed the fan-out)
// to the next owner — under the cluster request timeout, detached from
// any single client (s.baseCtx, like every flight leader). A 200 report
// populates the local result cache under the same key a local analyze
// would use, which is what makes the cache replica-local rather than
// owner-only. A 410 is authoritative (the trace was deleted) and does
// not cascade.
func (s *Server) fetchRemoteAnalysis(owners []string, path string, body []byte, key string) ([]byte, error) {
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	var notFound *relayError
	var lastPeer string
	var lastErr error
	for _, owner := range owners {
		resp, err := s.cluster.Roundtrip(s.baseCtx, owner, http.MethodPost, path, hdr, body)
		if err != nil {
			lastPeer, lastErr = owner, err
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastPeer, lastErr = owner, err
			continue
		}
		re := &relayError{
			status:      resp.StatusCode,
			contentType: resp.Header.Get("Content-Type"),
			body:        b,
		}
		if resp.StatusCode == http.StatusNotFound {
			notFound = re
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return nil, re
		}
		s.results.Put(key, b)
		return b, nil
	}
	if notFound != nil {
		return nil, notFound
	}
	if lastErr != nil {
		return nil, &peerDownError{peer: lastPeer, cause: lastErr}
	}
	return nil, &peerDownError{peer: "owners", cause: errNoLiveOwner}
}

// forwardUpload lands an upload whose content hash this replica does
// not own. The expensive part — a PT capture's decode and build —
// already ran here on the receiving replica; only enc, the built
// trace's canonical MGTR encoding, travels, as internal POST
// /v1/traces calls: the first live owner to accept it is the durable
// ack the client's 201 stands on (quorum = 1), the remaining owners
// get best-effort fan-out copies stamped with the ack's upload time,
// and any owner the fan-out missed is healed later by the anti-entropy
// repair loop. The ack's verdict (created vs deduplicated) relays back
// with the local build accounting re-attached, so clients cannot tell
// routed uploads from direct ones.
func (s *Server) forwardUpload(w http.ResponseWriter, r *http.Request, owners []string, id string, enc []byte, ds *pt.DecodeStats) {
	hdr := http.Header{"Content-Type": []string{ContentTypeTrace}}
	var resp *http.Response
	var body []byte
	var rest []string // owners still to replicate after the ack
	var lastPeer string
	var lastErr error
	for i, o := range owners {
		rt, err := s.cluster.Roundtrip(r.Context(), o, http.MethodPost, "/v1/traces", hdr, enc)
		if err != nil {
			lastPeer, lastErr = o, err
			continue
		}
		b, err := io.ReadAll(rt.Body)
		rt.Body.Close()
		if err != nil {
			lastPeer, lastErr = o, err
			continue
		}
		resp, body, rest = rt, b, owners[i+1:]
		break
	}
	if resp == nil {
		if lastErr != nil {
			s.writePeerUnavailable(w, lastPeer, lastErr)
		} else {
			s.writeNoLiveOwner(w, id)
		}
		return
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		(&relayError{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: body}).write(w)
		return
	}
	var info TraceInfo
	if err := json.Unmarshal(body, &info); err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "owner answered unparseable info: %v", err)
		return
	}
	s.fanoutUpload(enc, info.Uploaded, rest)
	info.Decode = ds // the capture decoded here; the owner never saw it
	w.Header().Set("Location", "/v1/traces/"+id)
	writeJSON(w, resp.StatusCode, info)
}

// fanoutUpload best-effort replicates an accepted upload's canonical
// bytes to the remaining owners, stamping the ack's upload time so
// every copy carries identical metadata. Failures only count — the
// durable ack already happened, and the repair loop re-replicates when
// the owner comes back. Detached from the client (s.baseCtx): a client
// disconnecting after its ack must not strand a copy. A no-op for
// single-node, fleet-internal (the acking owner already fans out), and
// replication-1 requests: planRoute leaves no remotes for all three.
func (s *Server) fanoutUpload(enc []byte, uploaded time.Time, owners []string) {
	if len(owners) == 0 {
		return
	}
	hdr := http.Header{
		"Content-Type": []string{ContentTypeTrace},
		headerUploaded: []string{uploaded.UTC().Format(time.RFC3339Nano)},
	}
	for _, o := range owners {
		s.metrics.replFanout.Add(1)
		resp, err := s.cluster.Roundtrip(s.baseCtx, o, http.MethodPost, "/v1/traces", hdr, enc)
		if err != nil {
			s.metrics.replFanoutFailures.Add(1)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			s.metrics.replFanoutFailures.Add(1)
		}
	}
}

// clusterDelete applies a DELETE to every live owner of id — the local
// corpus when this replica is one, fleet-internal DELETEs to the rest —
// and answers the strongest outcome: tombstoning on any live owner is a
// success even if another owner is down, because the repair loop
// propagates the tombstone when it rejoins. Outcome rank: 204 (deleted
// somewhere) > 410 (already deleted everywhere asked) > 404 (nobody
// ever had it) > failure.
func (s *Server) clusterDelete(w http.ResponseWriter, r *http.Request, plan routePlan, id string) {
	rank := func(status int) int {
		switch status {
		case http.StatusNoContent:
			return 3
		case http.StatusGone:
			return 2
		case http.StatusNotFound:
			return 1
		default:
			return 0
		}
	}
	best := 0
	var bestErr error
	answered := false // at least one owner actually processed the delete
	record := func(status int, err error) {
		answered = true
		if best == 0 || rank(status) > rank(best) {
			best, bestErr = status, err
		}
	}
	if plan.local {
		record(s.deleteLocal(id))
	}
	var lastPeer string
	var lastErr error
	for _, o := range plan.remotes {
		resp, err := s.cluster.Roundtrip(r.Context(), o, http.MethodDelete, r.URL.Path, nil, nil)
		if err != nil {
			lastPeer, lastErr = o, err
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		record(resp.StatusCode, fmt.Errorf("owner %s answered %d", o, resp.StatusCode))
	}
	if !answered {
		if lastErr != nil {
			s.writePeerUnavailable(w, lastPeer, lastErr)
		} else {
			s.writeNoLiveOwner(w, id)
		}
		return
	}
	if best == http.StatusNoContent {
		// Reports over deleted content age out of peers by LRU; ours go
		// now, like a local delete's.
		s.results.InvalidateTrace(id)
	}
	s.writeDeleteStatus(w, id, best, bestErr)
}
