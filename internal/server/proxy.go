package server

import (
	"bytes"
	"context"
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
// owner is down. A memgazed without peers is a cluster of one — a
// self-only ring that owns every key — so every request takes these
// paths. The ring itself (rendezvous hashing, membership, the
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
// trace agrees on its metadata. Honoured only on internal requests. The
// peer header is not authentication — isInternal trusts any non-empty
// value, so a client that sets it can backdate an upload — and memgazed
// assumes a trusted network.
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
// touching the per-endpoint metrics. A fleet-internal request is always
// served from the local corpus: plan{local: true}, with no remotes.
func (s *Server) ownerPlan(r *http.Request, id string) routePlan {
	if isInternal(r) {
		return routePlan{local: true}
	}
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
// counts an external one into the cluster routing-split metrics under
// endpoint. ok is false when no owner of the key is live anywhere — the
// peer_unavailable contract (writeNoLiveOwner) is then the only answer
// left, modulo locally cached results.
func (s *Server) planRoute(r *http.Request, endpoint, id string) (plan routePlan, ok bool) {
	plan = s.ownerPlan(r, id)
	if !isInternal(r) {
		if plan.local {
			s.metrics.clusterLocal[endpoint].Add(1)
		} else {
			s.metrics.clusterProxied[endpoint].Add(1)
		}
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

// askOwners is the owner failover walk: it sends one fleet-internal
// request to the live owners in rendezvous order and returns the first
// response that is not a 404, unread, with the index of the owner that
// gave it. A transport failure or a 404 moves on to the next owner (an
// owner that missed the upload fan-out simply does not have the copy
// yet; another one may). When every owner that answered said 404 the
// last 404 is the answer — the fleet genuinely never stored the key —
// with its body buffered; when nobody answered at all, down says why.
// The caller closes resp.Body.
func (s *Server) askOwners(ctx context.Context, owners []string, method, path string, hdr http.Header, body []byte) (resp *http.Response, at int, down *peerDownError) {
	down = &peerDownError{peer: "owners", cause: errNoLiveOwner}
	var notFound *http.Response
	for i, o := range owners {
		rt, err := s.cluster.Roundtrip(ctx, o, method, path, hdr, body)
		if err != nil {
			down = &peerDownError{peer: o, cause: err}
			continue
		}
		if rt.StatusCode != http.StatusNotFound {
			return rt, i, nil
		}
		b, _ := io.ReadAll(rt.Body)
		rt.Body.Close()
		rt.Body = io.NopCloser(bytes.NewReader(b))
		notFound, at = rt, i
	}
	if notFound != nil {
		return notFound, at, nil
	}
	return nil, 0, down
}

// relayFirst forwards the request verbatim — method, path, query, and
// headers, so conditional-request headers like If-None-Match keep
// working through the proxy — along the owner walk. The answer — 200,
// 304, 404, 410, 503 — relays as-is and streams: a /raw body is never
// buffered here; nobody answering at all is peer_unavailable.
func (s *Server) relayFirst(w http.ResponseWriter, r *http.Request, owners []string) {
	path := r.URL.Path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	resp, _, down := s.askOwners(r.Context(), owners, r.Method, path, r.Header, nil)
	if down != nil {
		down.write(w)
		return
	}
	defer resp.Body.Close()
	relayResponse(w, resp)
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

// peerDownError is the transport-failure form of the peer_unavailable
// contract: the owners believed live did not answer. It travels through
// the singleflight layer as an error; write answers it.
type peerDownError struct {
	peer  string
	cause error
}

func (e *peerDownError) Error() string {
	return fmt.Sprintf("peer %s unavailable: %v", e.peer, e.cause)
}

func (e *peerDownError) Unwrap() error { return e.cause }

func (e *peerDownError) write(w http.ResponseWriter) {
	writeError(w, http.StatusServiceUnavailable, ErrCodePeerUnavailable,
		"replica %s did not answer and no other owner of this key is live: %v", e.peer, e.cause)
}

// errNoLiveOwner is the cause carried when the owner walk had no live
// owner to ask.
var errNoLiveOwner = fmt.Errorf("no live owner")

// fetchRemoteAnalysis is the analyze flight leader's work when this
// replica holds no copy: POST the analyze body — naming only the
// analyses whose fragments are missing here — to id's live owners along
// the owner walk under the cluster request timeout, detached from any
// single client (s.baseCtx, like every flight leader). A 200 report is
// split into fragments cached under the same keys a local run's would
// be, which is what makes the cache replica-local rather than
// owner-only. Any other answer — a 410 tombstone, the fleet-wide 404 —
// is the owner's envelope, replayed verbatim.
func (s *Server) fetchRemoteAnalysis(owners []string, id string, body []byte) ([]byte, error) {
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	resp, at, down := s.askOwners(s.baseCtx, owners, http.MethodPost, "/v1/traces/"+id+"/analyze", hdr, body)
	if down != nil {
		return nil, down
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, &peerDownError{peer: owners[at], cause: err}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &relayError{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: b}
	}
	return b, nil
}

// forwardUpload lands an upload whose content hash this replica does
// not own. The expensive part — a PT capture's decode and build —
// already ran here on the receiving replica; only enc, the built
// trace's canonical MGTR encoding, travels, as internal POST
// /v1/traces calls along the owner walk: the first live owner to accept
// it is the durable ack the client's 201 stands on (quorum = 1), the
// owners after it get best-effort fan-out copies stamped with the ack's
// upload time, and any owner the fan-out missed is healed later by the
// anti-entropy repair loop. The ack's verdict (created vs deduplicated)
// relays back with the local build accounting re-attached, so clients
// cannot tell routed uploads from direct ones.
func (s *Server) forwardUpload(w http.ResponseWriter, r *http.Request, owners []string, id string, enc []byte, ds *pt.DecodeStats) {
	hdr := http.Header{"Content-Type": []string{ContentTypeTrace}}
	resp, at, down := s.askOwners(r.Context(), owners, http.MethodPost, "/v1/traces", hdr, enc)
	if down != nil {
		down.write(w)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		(&peerDownError{peer: owners[at], cause: err}).write(w)
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
	s.fanoutUpload(enc, info.Uploaded, owners[at+1:])
	info.Decode = ds // the capture decoded here; the owner never saw it
	w.Header().Set("Location", "/v1/traces/"+id)
	writeJSON(w, resp.StatusCode, info)
}

// fanoutUpload best-effort replicates an accepted upload's canonical
// bytes to the remaining owners, stamping the ack's upload time so
// every copy carries identical metadata. Failures only count — the
// durable ack already happened, and the repair loop re-replicates when
// the owner comes back. Detached from the client (s.baseCtx): a client
// disconnecting after its ack must not strand a copy. A no-op for a
// cluster of one, fleet-internal requests (the acking owner already fans
// out), and replication 1: planRoute leaves no remotes for all three.
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
// corpus when this replica is one (the whole plan for a cluster of one
// or a fleet-internal request), fleet-internal DELETEs to the rest —
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
	best := 0 // 0 until at least one owner actually processed the delete
	var bestErr error
	record := func(status int, err error) {
		if best == 0 || rank(status) > rank(best) {
			best, bestErr = status, err
		}
	}
	if plan.local {
		record(s.deleteLocal(id))
	}
	var down *peerDownError
	for _, o := range plan.remotes {
		resp, err := s.cluster.Roundtrip(r.Context(), o, http.MethodDelete, r.URL.Path, nil, nil)
		if err != nil {
			down = &peerDownError{peer: o, cause: err}
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		record(resp.StatusCode, fmt.Errorf("owner %s answered %d", o, resp.StatusCode))
	}
	if best == 0 {
		// planRoute guarantees a local or remote owner, so nobody
		// answering means every remote one failed in transport.
		down.write(w)
		return
	}
	if best == http.StatusNoContent {
		// Reports over deleted content age out of peers by LRU; ours go
		// now, like a local delete's.
		s.results.InvalidateTrace(id)
	}
	s.writeDeleteStatus(w, id, best, bestErr)
}
