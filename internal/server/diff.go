package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/memgaze/memgaze-go/internal/diff"
	"github.com/memgaze/memgaze-go/internal/engine"
)

// DiffRequest is the JSON body of POST /v1/diff: two resident trace
// ids plus the embedded analysis parameters applied identically to
// both sides. Deltas in the answer are A − B.
type DiffRequest struct {
	// A and B are the trace ids (content hashes) to compare.
	A string `json:"a"`
	B string `json:"b"`
	// TopK truncates the function, line, and region sections of the
	// DiffReport (0 = unlimited).
	TopK int `json:"top_k,omitempty"`
	// The analysis selection and parameters, exactly as in
	// POST /v1/traces/{id}/analyze; both traces are analysed with them.
	AnalyzeRequest
}

// cacheKey digests the normalised request under both content hashes —
// the coalescing and result-cache identity of a diff. Both ids lead the
// key so a DELETE of either trace invalidates it (see
// resultCache.InvalidateTrace).
func (q *DiffRequest) cacheKey() string {
	norm, _ := json.Marshal(q) // struct marshal: deterministic field order
	sum := sha256.Sum256(norm)
	return q.A + "|" + q.B + "|" + hex.EncodeToString(sum[:])
}

// handleDiff is POST /v1/diff. Each side's fragments come through the
// same result cache and flight group the analyze endpoint uses — a
// diff of two already-analysed traces costs the fragment lookups and no
// trace read — and the finished DiffReport is itself cached, so a
// repeat diff is one lookup.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var req DiffRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	if req.A == "" || req.B == "" {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "both trace ids a and b are required")
		return
	}
	kinds, err := req.analyses()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeUnknownAnalysis, "%v", err)
		return
	}
	var sides [2]*analyzeTarget
	for i, id := range []string{req.A, req.B} {
		// A side owned by other replicas resolves remotely inside
		// runDiff — as a proxied analyze walking the side's live owners,
		// so its fragments land in this replica's result cache like any
		// other; a self-owned side is checked here so a missing trace
		// answers before any engine work, falling back to the other
		// owners when the local copy has not landed yet.
		tg, err := s.resolveTarget(id, s.ownerPlan(r, id))
		if err != nil {
			s.writeFetchError(w, id, err)
			return
		}
		if !tg.local && len(tg.remotes) == 0 {
			s.writeNoLiveOwner(w, id)
			return
		}
		sides[i] = tg
	}

	key := req.cacheKey()
	vals, hit, err := s.cached(r.Context(), []string{key}, func([]string) (map[string]fragment, error) {
		b, err := s.runDiff(sides, &req, kinds)
		if err != nil {
			return nil, err
		}
		return map[string]fragment{key: {b}}, nil
	})
	if err != nil {
		s.writeAnalysisError(w, err)
		return
	}
	if hit {
		w.Header().Set("X-Memgazed-Cache", "hit")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(vals[0][0])
}

// runDiff is the diff flight leader's work: obtain both sides'
// fragments through analysisFragments (so a side someone already
// analysed with the same parameters is a cache hit, a side being
// analysed right now is joined, not recomputed, and a side owned by
// another replica proxies to its owner), decode just the fields the
// diff reads, and marshal the DiffReport. Detached from the requesting
// client like every flight leader; each side's engine run bounds itself
// with the server request timeout.
func (s *Server) runDiff(sides [2]*analyzeTarget, req *DiffRequest, kinds []engine.Analysis) ([]byte, error) {
	var reps [2]*engine.Report
	for i, tg := range sides {
		if !tg.local {
			s.metrics.clusterProxied["analyze"].Add(1) // a remote side is a proxied analyze
		}
		frags, _, err := s.analysisFragments(s.baseCtx, tg, &req.AnalyzeRequest, kinds)
		if err != nil {
			return nil, err
		}
		if reps[i], err = diffSide(kinds, frags); err != nil {
			return nil, fmt.Errorf("decoding report %s: %w", tg.id, err)
		}
	}
	b, err := json.Marshal(diff.Diff(reps[0], reps[1], diff.WithTopK(req.TopK)))
	if err != nil {
		return nil, fmt.Errorf("marshalling diff: %w", err)
	}
	return b, nil
}
