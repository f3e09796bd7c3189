package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/memgaze/memgaze-go/internal/cluster"
	"github.com/memgaze/memgaze-go/internal/engine"
	"github.com/memgaze/memgaze-go/internal/pt"
	"github.com/memgaze/memgaze-go/internal/storage"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// Content types of POST /v1/traces bodies.
const (
	// ContentTypeTrace is a serialised trace (trace.Trace.Write/Encode).
	ContentTypeTrace = "application/x-memgaze-trace"
	// ContentTypePT is a raw PT capture (pt.Capture.Write): the raw
	// buffer snapshots plus annotations, built server-side by the
	// pt.Builder pipeline.
	ContentTypePT = "application/x-memgaze-pt"
)

// Config parameterises a Server. Zero fields take the defaults noted.
type Config struct {
	// StoreBudgetBytes bounds resident encoded trace bytes; the store
	// evicts least-recently-used traces over it (default 256 MiB,
	// negative = unbounded).
	StoreBudgetBytes int64
	// ResultCacheBytes bounds the result cache of per-analysis report
	// fragments and finished diffs, keys and bookkeeping included
	// (default 64 MiB, negative = disabled).
	ResultCacheBytes int64
	// Workers bounds concurrently executing analysis jobs across all
	// requests — the server's shared engine worker pool (default
	// GOMAXPROCS). Each job is one engine suite run; the suite's own
	// internal parallelism is bounded by EngineParallelism.
	Workers int
	// EngineParallelism bounds analyses running concurrently within one
	// suite run (default: the engine's own default, GOMAXPROCS).
	EngineParallelism int
	// RequestTimeout bounds one analysis execution; expiry answers 504
	// (default 30s).
	RequestTimeout time.Duration
	// MaxUploadBytes bounds a POST /v1/traces body (default 256 MiB).
	MaxUploadBytes int64
	// BuildWorkers bounds samples decoded concurrently per PT-capture
	// upload (default GOMAXPROCS).
	BuildWorkers int
	// StreamChunkBytes is the read granularity of streamed uploads
	// (PUT /v1/traces:stream): peak raw memory per streamed PT build is
	// O(StreamChunkBytes × BuildWorkers) regardless of capture size
	// (default pt.DefaultStreamChunk, 256 KiB).
	StreamChunkBytes int
	// DataDir, when non-empty, enables the durable tier: uploads write
	// through to an append-only content-addressed segment store there
	// (internal/storage) and the corpus survives restarts, with the
	// in-memory store demoted to a hot-tier cache in front of the disk.
	// Empty keeps the memory-only mode, where a restart loses the
	// corpus.
	DataDir string
	// SegmentTargetBytes is the durable tier's segment roll size
	// (default 64 MiB; only meaningful with DataDir set).
	SegmentTargetBytes int64
	// Peers, when non-empty, joins this replica to a static memgazed
	// fleet: the full replica set's advertise addresses, this replica's
	// included. Every replica must be configured with the same set —
	// trace ownership is a pure rendezvous-hash function of it. Empty
	// makes this replica a cluster of one: a self-only ring that owns
	// every key.
	Peers []string
	// Advertise is this replica's own address exactly as it appears in
	// Peers (required when Peers is set; spellings normalize, so
	// "host:port" matches "http://host:port"). A cluster of one names
	// itself by it, or "localhost" when it is empty.
	Advertise string
	// ProbeInterval is the peer readyz prober's period (default 2s;
	// negative disables the background loop — tests drive probes
	// explicitly).
	ProbeInterval time.Duration
	// PeerTimeout bounds one proxied peer request end to end, retries
	// included (default 60s).
	PeerTimeout time.Duration
	// Replication is how many replicas own each trace: uploads write
	// through to the top-Replication peers of the id's rendezvous order
	// (quorum = 1 durable ack, best-effort fan-out to the rest) and
	// reads fail over along it (default 2, clamped to the peer count;
	// at 1 the failover walk covers a one-owner list, so a down owner
	// answers peer_unavailable; only meaningful with Peers set).
	Replication int
	// RepairInterval is the anti-entropy repair loop's period: each
	// round re-replicates under-replicated ids to rejoined owners and
	// propagates tombstones (default 30s; negative disables the loop —
	// tests drive repairNow explicitly; only meaningful with Peers set
	// and Replication > 1).
	RepairInterval time.Duration
}

func (c *Config) applyDefaults() {
	if c.StoreBudgetBytes == 0 {
		c.StoreBudgetBytes = 256 << 20
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 64 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.StreamChunkBytes <= 0 {
		c.StreamChunkBytes = pt.DefaultStreamChunk
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 30 * time.Second
	}
}

// Server is the memgazed HTTP service. Create one with New, serve it
// with net/http (Server implements http.Handler), and Close it after
// the listener has drained. Endpoints:
//
//	POST   /v1/traces              upload a trace (ContentTypeTrace) or raw PT capture (ContentTypePT)
//	PUT    /v1/traces:stream       streamed upload: chunked transfer, bounded memory, mid-stream quota
//	GET    /v1/traces              paged listing of stored trace metadata (TraceInfo, with tier)
//	GET    /v1/traces/{id}         trace metadata (TraceInfo)
//	GET    /v1/traces/{id}/raw     download the trace's MGTR encoding (streamed; ETag = content hash, 304 on If-None-Match, HEAD probes)
//	DELETE /v1/traces/{id}         delete a trace (durable tombstone with a DataDir; 410 afterwards)
//	POST   /v1/traces/{id}/analyze run a set of engine analyses, JSON Report
//	POST   /v1/diff                compare two stored traces, JSON DiffReport
//	GET    /v1/healthz             liveness: the process is up
//	GET    /v1/readyz              readiness: the durable tier can take writes (503 routes traffic away)
//	GET    /metrics                Prometheus text metrics
//
// Error responses are the envelope {"error": {"code", "message"}} with
// the stable codes of errors.go.
type Server struct {
	cfg     Config
	store   *Store
	disk    *storage.Store   // durable tier; nil in memory-only mode
	cluster *cluster.Cluster // fleet membership + proxy; self-only without Peers
	results *resultCache
	flights *flightGroup
	metrics *Metrics
	mux     *http.ServeMux

	baseCtx    context.Context // server lifetime: bounds analysis jobs
	baseCancel context.CancelFunc
	jobs       chan func()
	quit       chan struct{}
	workers    sync.WaitGroup

	// hookAnalyzeStart, when non-nil, runs at the start of each engine
	// job (tests use it to hold a leader in place while duplicates
	// arrive and coalesce).
	hookAnalyzeStart func()
}

// New creates a Server and starts its analysis worker pool. With
// cfg.DataDir set it also opens (or recovers) the durable segment
// store there; an unrecoverable data directory is the only error.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	results := newResultCache(cfg.ResultCacheBytes)
	s := &Server{
		cfg:     cfg,
		store:   NewStore(cfg.StoreBudgetBytes),
		results: results,
		flights: newFlightGroup(results),
		metrics: newMetrics(),
		jobs:    make(chan func()),
		quit:    make(chan struct{}),
	}
	if cfg.DataDir != "" {
		disk, err := storage.Open(storage.Config{
			Dir:                cfg.DataDir,
			SegmentTargetBytes: cfg.SegmentTargetBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("opening durable store: %w", err)
		}
		s.disk = disk
	}
	self, peers := cfg.Advertise, cfg.Peers
	if len(peers) == 0 {
		// A single node is a cluster of one: a self-only ring owns every
		// key, so every request routes the way a fleet's does.
		if self == "" {
			self = "localhost"
		}
		peers = []string{self}
	}
	cl, err := cluster.New(cluster.Config{
		Self:           self,
		Peers:          peers,
		Replication:    cfg.Replication,
		ProbeInterval:  cfg.ProbeInterval,
		RequestTimeout: cfg.PeerTimeout,
	})
	if err != nil {
		if s.disk != nil {
			s.disk.Close()
		}
		return nil, err
	}
	s.cluster = cl
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if s.cluster.Replication() > 1 && cfg.RepairInterval > 0 {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			s.repairLoop(cfg.RepairInterval)
		}()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for {
				select {
				case fn := <-s.jobs:
					fn()
				case <-s.quit:
					return
				}
			}
		}()
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/traces", s.instrument("upload", s.handleUpload))
	mux.Handle("PUT /v1/traces:stream", s.instrument("stream", s.handleStream))
	mux.Handle("GET /v1/traces", s.instrument("list", s.handleList))
	mux.Handle("GET /v1/traces/{id}", s.instrument("get", s.handleGet))
	mux.Handle("GET /v1/traces/{id}/raw", s.instrument("raw", s.handleRaw))
	mux.Handle("DELETE /v1/traces/{id}", s.instrument("delete", s.handleDelete))
	mux.Handle("POST /v1/traces/{id}/analyze", s.instrument("analyze", s.handleAnalyze))
	mux.Handle("POST /v1/diff", s.instrument("diff", s.handleDiff))
	mux.Handle("GET /v1/healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /v1/readyz", s.instrument("readyz", s.handleReadyz))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Handler returns the server's route mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics for out-of-band inspection.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close stops the analysis worker pool, cancels any still-running
// jobs, and — with a durable tier — syncs the active segment to stable
// storage and closes the segment files, so a SIGTERM drain loses
// nothing. Call it only after the HTTP listener has drained (for
// graceful shutdown: http.Server.Shutdown first, then Close); closing
// earlier aborts in-flight analyses, which then answer 503.
func (s *Server) Close() {
	s.baseCancel()
	close(s.quit)
	s.workers.Wait()
	s.cluster.Close()
	if s.disk != nil {
		s.disk.Close()
	}
}

// statusWriter captures the response code for the error counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so instrumented handlers keep
// streaming capability.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController,
// which recovers the deadline and flush interfaces through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ReadFrom forwards io.ReaderFrom to the underlying writer. io.Copy
// does not know about Unwrap, so without this the wrapper would hide
// net/http's ReadFrom — and with it the sendfile/splice fast path —
// from every streamed response body. Of the remaining optional
// interfaces, Flusher is forwarded above, deadline control is recovered
// via Unwrap, and Hijacker/Pusher are deliberately not forwarded: no
// endpoint upgrades connections or pushes.
func (w *statusWriter) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(r)
	}
	return io.Copy(w.ResponseWriter, r)
}

// instrument wraps a handler with the endpoint's request counter
// (incremented on arrival, so coalesced waiters are visible while they
// wait), error counter, and latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests[endpoint].Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.metrics.latency[endpoint].ObserveDuration(time.Since(start))
		if sw.status >= 400 {
			s.metrics.errors[endpoint].Add(1)
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError answers with the structured /v1 error envelope: a stable
// machine-readable code (the errors.go registry) plus a free-form
// message.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// Storage tiers of a TraceInfo.
const (
	// tierHot: resident in the in-memory cache (and, in durable mode,
	// also on disk — hot is a cache in front of the durable tier).
	tierHot = "hot"
	// tierDisk: durable tier only; the next read promotes it.
	tierDisk = "disk"
)

// TraceInfo is the stable metadata shape shared by uploads,
// GET /v1/traces/{id}, and every GET /v1/traces listing entry.
type TraceInfo struct {
	ID      string  `json:"id"`
	Module  string  `json:"module"`
	Mode    string  `json:"mode"`
	Samples int     `json:"samples"`
	Records int     `json:"records"`
	Bytes   int64   `json:"bytes"` // encoded (stored) size
	Rho     float64 `json:"rho"`
	Kappa   float64 `json:"kappa"`
	// Tier is where the trace currently sits: "hot" (in-memory cache)
	// or "disk" (durable tier only, promoted on next read).
	Tier string `json:"tier"`
	// Uploaded is when this content first arrived (dedup keeps the
	// original time; in durable mode it survives restarts).
	Uploaded time.Time `json:"uploaded"`
	// Existed is true when an upload deduplicated against a stored
	// trace with identical content.
	Existed bool `json:"existed,omitempty"`
	// Decode carries the build accounting of a PT-capture upload.
	Decode *pt.DecodeStats `json:"decode,omitempty"`
}

func traceInfo(id string, tr *trace.Trace, size int64) TraceInfo {
	return TraceInfo{
		ID:      id,
		Module:  tr.Module,
		Mode:    tr.Mode,
		Samples: tr.NumSamples(),
		Records: tr.NumRecords(),
		Bytes:   size,
		Rho:     tr.Rho(),
		Kappa:   tr.Kappa(),
	}
}

// diskInfo builds the TraceInfo of a durable-tier index entry — no
// MGTR decode; everything comes from the stored Meta blob.
func diskInfo(id string, m storage.Meta, size int64, tier string) TraceInfo {
	return TraceInfo{
		ID:       id,
		Module:   m.Module,
		Mode:     m.Mode,
		Samples:  m.Samples,
		Records:  m.Records,
		Bytes:    size,
		Rho:      m.Rho,
		Kappa:    m.Kappa,
		Tier:     tier,
		Uploaded: m.Uploaded,
	}
}

// storeTrace lands a decoded upload in the tiers: write-through to the
// durable store first when one is configured — a disk failure fails
// the upload, so the hot tier never serves a trace the disk lost —
// then the hot tier. enc is tr's canonical encoding, the bytes the
// segment appends. It reports whether the content is new and the
// upload time to answer with (dedup keeps the original's). A non-zero
// at is a replication write carrying the ack's upload time, so every
// owner's copy agrees on the metadata; zero stamps now.
func (s *Server) storeTrace(id string, tr *trace.Trace, enc []byte, at time.Time) (added bool, uploaded time.Time, err error) {
	uploaded = at.UTC()
	if at.IsZero() {
		uploaded = time.Now().UTC()
	}
	size := int64(len(enc))
	if s.disk != nil {
		m := storage.Meta{
			Module:   tr.Module,
			Mode:     tr.Mode,
			Samples:  tr.NumSamples(),
			Records:  tr.NumRecords(),
			Rho:      tr.Rho(),
			Kappa:    tr.Kappa(),
			Uploaded: uploaded,
		}
		added, err = s.disk.Put(id, m, size, bytes.NewReader(enc))
		if err != nil {
			return false, time.Time{}, err
		}
		if !added {
			if prev, _, ierr := s.disk.Info(id); ierr == nil {
				uploaded = prev.Uploaded
			}
		}
		s.store.Put(id, tr, size, uploaded)
		return added, uploaded, nil
	}
	if !s.store.Put(id, tr, size, uploaded) {
		if _, _, prev, ok := s.store.Meta(id); ok {
			uploaded = prev
		}
		return false, uploaded, nil
	}
	return true, uploaded, nil
}

// fetch returns the trace under id for analysis or download: the hot
// tier first (a read bumps recency), then the durable tier on a miss —
// the disk copy is CRC-verified, decoded, and promoted into the hot
// tier so repeat reads stay in memory. Errors are storage.ErrNotFound,
// storage.ErrDeleted, or a wrapped disk failure; writeFetchError maps
// them onto the /v1 registry.
func (s *Server) fetch(id string) (*trace.Trace, int64, error) {
	if tr, size, ok := s.store.Get(id); ok {
		return tr, size, nil
	}
	if s.disk == nil {
		return nil, 0, storage.ErrNotFound
	}
	b, m, err := s.disk.Get(id)
	if err != nil {
		return nil, 0, err
	}
	tr, err := trace.Decode(b)
	if err != nil {
		// The bytes passed their CRC but do not decode — a storage-side
		// fault (format skew, not a client error).
		return nil, 0, fmt.Errorf("decoding stored trace %s: %w", id, err)
	}
	s.metrics.promotions.Add(1)
	s.store.Put(id, tr, int64(len(b)), m.Uploaded)
	return tr, int64(len(b)), nil
}

// infoFor resolves a trace's TraceInfo without promoting or bumping
// recency: the hot tier first, then the durable index (no payload
// read). The error taxonomy matches fetch.
func (s *Server) infoFor(id string) (TraceInfo, error) {
	if tr, size, uploaded, ok := s.store.Meta(id); ok {
		info := traceInfo(id, tr, size)
		info.Tier = tierHot
		info.Uploaded = uploaded
		return info, nil
	}
	if s.disk == nil {
		return TraceInfo{}, storage.ErrNotFound
	}
	m, size, err := s.disk.Info(id)
	if err != nil {
		return TraceInfo{}, err
	}
	return diskInfo(id, m, size, tierDisk), nil
}

// writeFetchError maps a fetch/infoFor error onto the error registry:
// 404 trace_not_found, 410 trace_deleted (durably tombstoned), 503
// storage_unavailable (the disk tier failed).
func (s *Server) writeFetchError(w http.ResponseWriter, id string, err error) {
	switch {
	case errors.Is(err, storage.ErrNotFound):
		writeError(w, http.StatusNotFound, ErrCodeTraceNotFound, "unknown trace %q", id)
	case errors.Is(err, storage.ErrDeleted):
		writeError(w, http.StatusGone, ErrCodeTraceDeleted, "trace %q was deleted", id)
	default:
		writeError(w, http.StatusServiceUnavailable, ErrCodeStorageUnavailable, "durable store: %v", err)
	}
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge, "body exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "reading body: %v", err)
		return
	}

	var tr *trace.Trace
	var ds *pt.DecodeStats
	ctype, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	switch strings.TrimSpace(ctype) {
	case ContentTypePT:
		tr, ds, err = s.buildCapture(r, body)
		if err != nil {
			var ce *pt.CorruptionError
			switch {
			case errors.As(err, &ce):
				writeError(w, http.StatusUnprocessableEntity, ErrCodeCorruptPTStream, "corrupt PT stream: %v", ce)
			case errors.Is(err, context.Canceled):
				// Client went away mid-build: same treatment as a
				// cancelled analysis, not a client error.
				writeError(w, http.StatusServiceUnavailable, ErrCodeCancelled, "build cancelled")
			default:
				writeError(w, http.StatusBadRequest, ErrCodeInvalidCapture, "PT capture: %v", err)
			}
			return
		}
	case ContentTypeTrace, "application/octet-stream", "":
		tr, err = trace.DecodeBounded(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidTrace, "trace: %v", err)
			return
		}
	default:
		writeError(w, http.StatusUnsupportedMediaType, ErrCodeUnsupportedMediaType, "unsupported content type %q", ctype)
		return
	}

	s.acceptUpload(w, r, "upload", tr, ds)
}

// acceptUpload is the shared tail of both upload handlers, run once
// the body has decoded into tr. The trace is encoded exactly once, and
// that one byte slice is the content identity (trace.EncodingHash),
// the segment append, the forward to an owning replica, and the
// fan-out to the other owners. The answer is traceInfo of the built
// trace either way, so a streamed upload and its buffered twin answer
// identically.
func (s *Server) acceptUpload(w http.ResponseWriter, r *http.Request, endpoint string, tr *trace.Trace, ds *pt.DecodeStats) {
	enc, err := tr.Encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "encoding trace: %v", err)
		return
	}
	id := trace.EncodingHash(enc)
	plan, ok := s.planRoute(r, endpoint, id)
	if !ok {
		s.writeNoLiveOwner(w, id)
		return
	}
	if !plan.local {
		s.forwardUpload(w, r, plan.remotes, id, enc, ds)
		return
	}
	added, uploaded, err := s.storeTrace(id, tr, enc, internalUploadTime(r))
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, ErrCodeStorageUnavailable, "durable store: %v", err)
		return
	}
	s.fanoutUpload(enc, uploaded, plan.remotes)
	info := traceInfo(id, tr, int64(len(enc)))
	info.Tier = tierHot // an upload always lands hot
	info.Uploaded = uploaded
	info.Existed = !added
	info.Decode = ds
	status := http.StatusCreated
	if !added {
		status = http.StatusOK
	}
	w.Header().Set("Location", "/v1/traces/"+id)
	writeJSON(w, status, info)
}

// faultPolicy parses the ?fault query parameter shared by both upload
// paths (resync, the default, or fail).
func faultPolicy(r *http.Request) (pt.FaultPolicy, error) {
	switch v := r.URL.Query().Get("fault"); v {
	case "", "resync":
		return pt.FaultResync, nil
	case "fail":
		return pt.FaultFail, nil
	default:
		return 0, fmt.Errorf("unknown fault policy %q", v)
	}
}

// buildCapture decodes a raw PT capture upload through the Builder
// pipeline. The fault policy comes from the ?fault query parameter
// (resync, the default, or fail).
func (s *Server) buildCapture(r *http.Request, body []byte) (*trace.Trace, *pt.DecodeStats, error) {
	cp, err := pt.ReadCapture(bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	policy, err := faultPolicy(r)
	if err != nil {
		return nil, nil, err
	}
	tr, ds, err := cp.NewBuilder(
		pt.WithWorkers(s.cfg.BuildWorkers),
		pt.WithFaultPolicy(policy),
	).Build(r.Context())
	if err != nil {
		return nil, nil, err
	}
	return tr, &ds, nil
}

// countingReader counts bytes as they come off the wire — the
// bytes-streamed histogram's source, observed whether or not the upload
// succeeds.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// handleStream is PUT /v1/traces:stream: the bounded-memory upload
// path. The body — chunked transfer or unknown Content-Length included
// — is consumed incrementally and never buffered: a PT capture decodes
// through pt.BuildCaptureStream with samples pipelined onto the build
// workers; an MGTR trace decodes through trace.Read directly off the
// wire. The byte quota is enforced mid-stream by http.MaxBytesReader
// (413 on breach), and client disconnects surface between chunks as
// context cancellation (503). The built trace then goes through the
// same acceptUpload as a buffered upload, so a streamed upload of any
// valid body deduplicates against its buffered twin byte-for-byte.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.streamsInFlight.Add(1)
	defer s.metrics.streamsInFlight.Add(-1)
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)}
	defer func() { s.metrics.streamBytes.Observe(float64(body.n)) }()

	var (
		tr  *trace.Trace
		ds  *pt.DecodeStats
		err error
	)
	ctype, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	switch strings.TrimSpace(ctype) {
	case ContentTypePT:
		var policy pt.FaultPolicy
		policy, err = faultPolicy(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "%v", err)
			return
		}
		var dsv pt.DecodeStats
		tr, dsv, err = pt.BuildCaptureStream(r.Context(), body,
			pt.WithWorkers(s.cfg.BuildWorkers),
			pt.WithChunkBytes(s.cfg.StreamChunkBytes),
			pt.WithFaultPolicy(policy),
		)
		ds = &dsv
	case ContentTypeTrace, "application/octet-stream", "":
		tr, err = trace.ReadBounded(body)
	default:
		writeError(w, http.StatusUnsupportedMediaType, ErrCodeUnsupportedMediaType, "unsupported content type %q", ctype)
		return
	}
	if err != nil {
		var mbe *http.MaxBytesError
		var ce *pt.CorruptionError
		switch {
		case errors.As(err, &mbe):
			writeError(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge, "body exceeds %d bytes", mbe.Limit)
		case errors.As(err, &ce):
			writeError(w, http.StatusUnprocessableEntity, ErrCodeCorruptPTStream, "corrupt PT stream: %v", ce)
		case errors.Is(err, context.Canceled) || r.Context().Err() != nil:
			writeError(w, http.StatusServiceUnavailable, ErrCodeCancelled, "stream cancelled")
		default:
			writeError(w, http.StatusBadRequest, ErrCodeInvalidTrace, "stream: %v", err)
		}
		return
	}
	s.acceptUpload(w, r, "stream", tr, ds)
}

// etagMatch reports whether an If-None-Match header matches etag.
// Weak validators compare equal — the content hash makes every stored
// representation byte-identical, so W/ prefixes carry no information
// here — and "*" matches any stored trace.
func etagMatch(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimPrefix(strings.TrimSpace(c), "W/")
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

// handleRaw is GET (and HEAD) /v1/traces/{id}/raw: the streamed
// download twin of the upload paths. The id is the content hash, so it
// doubles as a strong ETag: If-None-Match answers 304 without touching
// the payload, and HEAD probes the fleet for a hash — headers only, no
// promotion, no recency bump. An actual download fetches through the
// tiers (promoting a disk-resident trace) and serialises the MGTR
// encoding straight into the response via Trace.WriteTo —
// Content-Length is known from stored accounting, nothing is buffered.
func (s *Server) handleRaw(w http.ResponseWriter, r *http.Request) {
	id, info, ok := s.localInfo(w, r, "raw")
	if !ok {
		return
	}
	etag := `"` + id + `"`
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", ContentTypeTrace)
	w.Header().Set("Content-Length", strconv.FormatInt(info.Bytes, 10))
	if r.Method == http.MethodHead {
		return // existence probe: headers only
	}
	tr, _, err := s.fetch(id) // a download is a use: bump recency, promote
	if err != nil {
		s.writeFetchError(w, id, err)
		return
	}
	tr.WriteTo(w)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if _, info, ok := s.localInfo(w, r, "get"); ok {
		writeJSON(w, http.StatusOK, info)
	}
}

// localInfo is the shared prelude of GET /v1/traces/{id} and its /raw
// twin: route the request, and answer from local metadata when this
// replica owns the trace and holds it. Otherwise it relays the request
// along the owner walk — an owner whose copy has not landed (yet) falls
// back to the others — or answers the error itself, and ok is false.
func (s *Server) localInfo(w http.ResponseWriter, r *http.Request, endpoint string) (id string, info TraceInfo, ok bool) {
	id = r.PathValue("id")
	plan, live := s.planRoute(r, endpoint, id)
	if !live {
		s.writeNoLiveOwner(w, id)
		return id, info, false
	}
	if plan.local {
		info, err := s.infoFor(id)
		if err == nil {
			return id, info, true
		}
		if !errors.Is(err, storage.ErrNotFound) || len(plan.remotes) == 0 {
			s.writeFetchError(w, id, err)
			return id, info, false
		}
	}
	s.relayFirst(w, r, plan.remotes)
	return id, info, false
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	plan, ok := s.planRoute(r, "delete", id)
	if !ok {
		s.writeNoLiveOwner(w, id)
		return
	}
	s.clusterDelete(w, r, plan, id)
}

// deleteLocal applies a delete to the local tiers only and reports the
// outcome as an HTTP status: 204 deleted (durable tombstone with a
// disk tier), 410 already tombstoned, 404 never stored, 503 the disk
// tier failed (err carries the cause then).
func (s *Server) deleteLocal(id string) (int, error) {
	if s.disk != nil {
		ok, err := s.disk.Delete(id)
		if err != nil {
			return http.StatusServiceUnavailable, err
		}
		if !ok {
			// Not live: distinguish never-stored from already-deleted.
			if _, _, ierr := s.disk.Info(id); errors.Is(ierr, storage.ErrDeleted) {
				return http.StatusGone, nil
			}
			return http.StatusNotFound, nil
		}
		s.store.Delete(id) // drop the hot copy with the durable one
		s.results.InvalidateTrace(id)
		return http.StatusNoContent, nil
	}
	if !s.store.Delete(id) {
		return http.StatusNotFound, nil
	}
	s.results.InvalidateTrace(id)
	return http.StatusNoContent, nil
}

// writeDeleteStatus renders a delete outcome (deleteLocal's or the
// strongest of a clusterDelete's) onto the wire in the /v1 envelope.
func (s *Server) writeDeleteStatus(w http.ResponseWriter, id string, status int, err error) {
	switch status {
	case http.StatusNoContent:
		w.WriteHeader(http.StatusNoContent)
	case http.StatusGone:
		writeError(w, http.StatusGone, ErrCodeTraceDeleted, "trace %q already deleted", id)
	case http.StatusNotFound:
		writeError(w, http.StatusNotFound, ErrCodeTraceNotFound, "unknown trace %q", id)
	default:
		writeError(w, http.StatusServiceUnavailable, ErrCodeStorageUnavailable, "durable store: %v", err)
	}
}

// handleHealthz is GET /v1/healthz: pure liveness — the process is up
// and serving. Storage state is deliberately excluded; that is readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is GET /v1/readyz: the load-balancer routing probe. A
// replica whose durable tier cannot take writes (sticky append/sync
// failure) or whose compactor is wedged answers 503 so traffic drains
// away while the process — still alive per healthz — keeps serving
// what it can. Memory-only mode is always ready.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.disk == nil {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "storage": "memory"})
		return
	}
	if err := s.disk.Healthy(); err != nil {
		writeError(w, http.StatusServiceUnavailable, ErrCodeStorageUnavailable, "not ready: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "storage": "durable"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w, s.store, s.results, s.disk, s.cluster)
}

// AnalyzeRequest is the JSON body of POST /v1/traces/{id}/analyze.
// Every field is optional; zero values take the engine defaults, and an
// empty (or absent) analysis list runs the engine's default suite.
type AnalyzeRequest struct {
	// Analyses names the analyses to run ("functions", "mrc", …; see
	// engine.Analysis.String).
	Analyses []string `json:"analyses,omitempty"`
	// BlockSize is the access-block granularity in bytes.
	BlockSize uint64 `json:"block_size,omitempty"`
	// PageSize is the working-set page size in bytes.
	PageSize uint64 `json:"page_size,omitempty"`
	// Windows are the trace-window sizes.
	Windows []uint64 `json:"windows,omitempty"`
	// Capacities are the miss-ratio curve capacities in blocks.
	Capacities []int `json:"capacities,omitempty"`
	// TimeIntervals is the interval-tree breakdown granularity.
	TimeIntervals *int `json:"time_intervals,omitempty"`
	// WorkingSetIntervals is the working-set curve granularity.
	WorkingSetIntervals *int `json:"working_set_intervals,omitempty"`
	// ROICoverPct is the load share the suggested ROI must cover.
	ROICoverPct float64 `json:"roi_cover_pct,omitempty"`
	// HeatmapLo/HeatmapHi fix the heatmap region.
	HeatmapLo uint64 `json:"heatmap_lo,omitempty"`
	HeatmapHi uint64 `json:"heatmap_hi,omitempty"`
	// HeatmapRows/HeatmapCols set the heatmap geometry.
	HeatmapRows int `json:"heatmap_rows,omitempty"`
	HeatmapCols int `json:"heatmap_cols,omitempty"`
}

// engineOptions translates the request into engine options: the
// requested analyses (see analyses) and every parameter, leaving engine
// defaults in place for zero fields.
func (q *AnalyzeRequest) engineOptions() ([]engine.Option, error) {
	kinds, err := q.analyses()
	if err != nil {
		return nil, err
	}
	opts := []engine.Option{engine.WithAnalyses(kinds...)}
	if q.BlockSize > 0 {
		opts = append(opts, engine.WithBlockSize(q.BlockSize))
	}
	if q.PageSize > 0 {
		opts = append(opts, engine.WithPageSize(q.PageSize))
	}
	if len(q.Windows) > 0 {
		opts = append(opts, engine.WithWindows(q.Windows))
	}
	if len(q.Capacities) > 0 {
		opts = append(opts, engine.WithCapacities(q.Capacities))
	}
	if q.TimeIntervals != nil {
		opts = append(opts, engine.WithTimeIntervals(*q.TimeIntervals))
	}
	if q.WorkingSetIntervals != nil {
		opts = append(opts, engine.WithWorkingSetIntervals(*q.WorkingSetIntervals))
	}
	if q.ROICoverPct > 0 {
		opts = append(opts, engine.WithROICoverage(q.ROICoverPct))
	}
	if q.HeatmapLo != 0 || q.HeatmapHi != 0 {
		opts = append(opts, engine.WithHeatmapRegion(q.HeatmapLo, q.HeatmapHi))
	}
	if q.HeatmapRows > 0 || q.HeatmapCols > 0 {
		opts = append(opts, engine.WithHeatmapBins(q.HeatmapRows, q.HeatmapCols))
	}
	return opts, nil
}

// analyses resolves the requested analysis names: each named analysis
// once, in suite order, or the engine's default suite when none is
// named. Neither the order nor the repetition of names changes a
// Report, so requests that differ only there share every fragment.
func (q *AnalyzeRequest) analyses() ([]engine.Analysis, error) {
	if len(q.Analyses) == 0 {
		return engine.DefaultAnalyses(), nil
	}
	var want uint64 // bit a: analysis a was named
	for _, name := range q.Analyses {
		a, ok := engine.ParseAnalysis(name)
		if !ok {
			return nil, fmt.Errorf("unknown analysis %q", name)
		}
		want |= 1 << a
	}
	kinds := make([]engine.Analysis, 0, bits.OnesCount64(want))
	for _, a := range allAnalyses {
		if want&(1<<a) != 0 {
			kinds = append(kinds, a)
		}
	}
	return kinds, nil
}

// paramDigest is the hex SHA-256 of the normalised request with its
// analysis list cleared: every parameter any analysis reads, and
// nothing about which analyses were asked for. With the trace id (a
// content hash) and an analysis name it keys that analysis's fragment.
func (q *AnalyzeRequest) paramDigest() string {
	p := *q
	p.Analyses = nil
	norm, _ := json.Marshal(&p) // struct marshal: deterministic field order
	sum := sha256.Sum256(norm)
	return hex.EncodeToString(sum[:])
}

// readRequest decodes a JSON request body into v, rejecting unknown
// fields; an empty body leaves v zero. On an unreadable or malformed
// body it answers 400 invalid_request itself and returns false.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "reading body: %v", err)
		return false
	}
	if len(body) == 0 {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, "request: %v", err)
		return false
	}
	return true
}

// analyzeTarget is where one trace's fragments come from after
// routing: the local copy when this replica holds one, or else the
// trace's live remote owners in rendezvous order.
type analyzeTarget struct {
	id      string
	local   bool
	remotes []string
}

// resolveTarget checks that this replica holds id when plan makes it an
// owner — from the hot-tier index or the durable index, never the
// payload, so a request the result cache answers reads no trace bytes.
// An owner missing its copy falls back to the other owners; any other
// failure (a tombstone, a disk fault) is returned for writeFetchError.
func (s *Server) resolveTarget(id string, plan routePlan) (*analyzeTarget, error) {
	tg := &analyzeTarget{id: id, remotes: plan.remotes}
	if plan.local {
		err := s.present(id)
		if err != nil && !(errors.Is(err, storage.ErrNotFound) && len(plan.remotes) > 0) {
			return nil, err
		}
		tg.local = err == nil
	}
	return tg, nil
}

// present is infoFor without building the info: nil when this replica
// holds id, else fetch's error taxonomy, read from the hot-tier index or
// the durable index without touching the payload or its recency.
func (s *Server) present(id string) error {
	if s.store.Contains(id) {
		return nil
	}
	if s.disk == nil {
		return storage.ErrNotFound
	}
	_, _, err := s.disk.Info(id)
	return err
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Served even with every owner down: the replica-local result cache
	// may still hold every fragment, and only an uncached analyze is
	// peer_unavailable then.
	plan, _ := s.planRoute(r, "analyze", id)
	tg, err := s.resolveTarget(id, plan)
	if err != nil {
		s.writeFetchError(w, id, err)
		return
	}
	var req AnalyzeRequest
	if !s.readRequest(w, r, &req) {
		return
	}
	kinds, err := req.analyses()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeUnknownAnalysis, "%v", err)
		return
	}
	frags, hit, err := s.analysisFragments(r.Context(), tg, &req, kinds)
	if err != nil {
		s.writeAnalysisError(w, err)
		return
	}
	if hit {
		w.Header().Set("X-Memgazed-Cache", "hit")
	}
	w.Header().Set("Content-Type", "application/json")
	writeReport(w, kinds, frags)
}

// analysisFragments returns tg's fragment of each of kinds (suite
// order, no repeats) under req's parameters. Cached fragments cost a
// lookup and no trace read; a missing one already being computed is
// joined; one produceFragments run computes the rest. The analyze
// endpoint and both diff sides, local or proxied, take this one path.
// hit reports that every fragment was cached.
func (s *Server) analysisFragments(ctx context.Context, tg *analyzeTarget, req *AnalyzeRequest, kinds []engine.Analysis) (frags []fragment, hit bool, err error) {
	digest := req.paramDigest()
	keys := make([]string, len(kinds))
	for i, a := range kinds {
		keys[i] = tg.id + "|" + digest + "|" + a.String()
	}
	return s.cached(ctx, keys, func(led []string) (map[string]fragment, error) {
		missing := make([]engine.Analysis, len(led))
		for i, key := range led {
			missing[i], _ = engine.ParseAnalysis(key[strings.LastIndexByte(key, '|')+1:])
		}
		members, err := s.produceFragments(tg, req, missing)
		if err != nil {
			return nil, err
		}
		out := make(map[string]fragment, len(led))
		for i, a := range missing {
			f, err := fragmentOf(members, a)
			if err != nil {
				return nil, fmt.Errorf("report of %s: %w", tg.id, err)
			}
			out[led[i]] = f
		}
		return out, nil
	})
}

// cached returns the fragment under each of keys: result-cache hits,
// or else joins of the ones in flight and one detached compute of the
// rest, which the flight group caches (see flightGroup.Do), with the
// hit, miss, and coalesced accounting of analyze and diff — one count
// per call. ctx bounds only this caller's wait.
func (s *Server) cached(ctx context.Context, keys []string, compute func(led []string) (map[string]fragment, error)) (vals []fragment, hit bool, err error) {
	vals = make([]fragment, len(keys))
	hit = true
	for i, key := range keys {
		vals[i], _ = s.results.Get(key)
		hit = hit && vals[i] != nil
	}
	if hit {
		s.metrics.cacheHits.Add(1)
		return vals, true, nil
	}
	s.metrics.cacheMisses.Add(1)
	joined, err := s.flights.Do(ctx, keys, vals, compute)
	if joined {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		return nil, false, err
	}
	return vals, false, nil
}

// produceFragments is the one producer of missing fragments: the
// Report of exactly the missing analyses as one JSON text per top-level
// field. On a replica holding the trace that is an engine run on the
// local copy — the only place a request reads trace bytes — with each
// field marshalled on its own (reportMembers); on one without, an
// analyze of exactly those analyses along the owner walk, whose answer
// is split. It runs as a flight leader, detached from any single
// client.
func (s *Server) produceFragments(tg *analyzeTarget, req *AnalyzeRequest, missing []engine.Analysis) (map[string]json.RawMessage, error) {
	if tg.local {
		tr, _, err := s.fetch(tg.id)
		if err == nil {
			rep, err := s.runAnalysis(tr, req, missing)
			if err != nil {
				return nil, err
			}
			return reportMembers(rep, missing)
		}
		if !errors.Is(err, storage.ErrNotFound) || len(tg.remotes) == 0 {
			return nil, &fetchError{id: tg.id, err: err}
		}
		// The copy left since resolveTarget looked (a memory-only
		// eviction); the other owners may still hold theirs.
	}
	sub := *req
	sub.Analyses = make([]string, len(missing))
	for i, a := range missing {
		sub.Analyses[i] = a.String()
	}
	body, err := json.Marshal(&sub)
	if err != nil {
		return nil, fmt.Errorf("marshalling analyze request: %w", err)
	}
	b, err := s.fetchRemoteAnalysis(tg.remotes, tg.id, body)
	if err != nil {
		return nil, err
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(b, &members); err != nil {
		return nil, fmt.Errorf("splitting the owner's report of %s: %w", tg.id, err)
	}
	return members, nil
}

// fetchError carries a flight leader's failed local read through the
// flight group, so writeAnalysisError answers it as writeFetchError
// does a failed resolveTarget.
type fetchError struct {
	id  string
	err error
}

func (e *fetchError) Error() string { return fmt.Sprintf("reading trace %s: %v", e.id, e.err) }

func (e *fetchError) Unwrap() error { return e.err }

// writeAnalysisError maps a failed analysis or diff onto the shared
// error taxonomy.
func (s *Server) writeAnalysisError(w http.ResponseWriter, err error) {
	var re *relayError
	var pe *peerDownError
	var fe *fetchError
	switch {
	case errors.As(err, &re):
		// A proxied analysis the owner answered with an error: the
		// owner's envelope is the answer, replayed verbatim.
		re.write(w)
	case errors.As(err, &pe):
		pe.write(w)
	case errors.As(err, &fe):
		s.writeFetchError(w, fe.id, fe.err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, ErrCodeDeadlineExceeded, "analysis exceeded %v", s.cfg.RequestTimeout)
	case errors.Is(err, context.Canceled):
		// Client went away or the server is closing; nothing useful to
		// say to the former, 503 for the latter.
		writeError(w, http.StatusServiceUnavailable, ErrCodeCancelled, "analysis cancelled")
	default:
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "analysis: %v", err)
	}
}

// runAnalysis runs one engine suite of kinds under req's parameters on
// the shared worker pool, bounded by the server-scoped request timeout.
// It is detached from any single client request, so a coalesced group
// keeps its computation even if the first requester disconnects.
func (s *Server) runAnalysis(tr *trace.Trace, req *AnalyzeRequest, kinds []engine.Analysis) (*engine.Report, error) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
	defer cancel()

	opts, err := req.engineOptions()
	if err != nil {
		return nil, err
	}
	opts = append(opts, engine.WithAnalyses(kinds...), engine.WithObserver(func(a engine.Analysis, d time.Duration) {
		s.metrics.ObserveAnalysis(a.String(), d)
	}))
	if s.cfg.EngineParallelism > 0 {
		opts = append(opts, engine.WithParallelism(s.cfg.EngineParallelism))
	}

	var rep *engine.Report
	done := make(chan struct{})
	job := func() {
		defer close(done)
		if s.hookAnalyzeStart != nil {
			s.hookAnalyzeStart()
		}
		rep, err = engine.New(tr, opts...).Run(ctx)
	}
	select {
	case s.jobs <- job:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.quit:
		return nil, context.Canceled
	}
	<-done // the engine honours ctx, so this returns promptly after expiry
	return rep, err
}
