// Package memgaze is the public API of MemGaze-Go, a reproduction of
// "MemGaze: Rapid and Effective Load-Level Memory Trace Analysis"
// (IEEE CLUSTER 2022): low-overhead, load-level memory trace collection
// via sampled ptwrite-style tracing, plus multi-resolution analyses of
// data movement, reuse, footprint, and access patterns.
//
// # Analyzing a trace
//
// The entry point for analysis is NewAnalyzer: it takes a collected
// trace plus functional options, runs the requested analyses as one
// suite, and returns a single Report. The suite shares derived data —
// one stack-distance sweep feeds the miss-ratio curve, its bounds, the
// reuse-interval histogram, and the confidence pass together; the
// function diagnostics feed both the hot-function table and the ROI
// suggestion — and honours context cancellation in every long loop:
//
//	import "github.com/memgaze/memgaze-go"
//
//	res, err := memgaze.Run(workload, memgaze.DefaultConfig())
//	rep, err := memgaze.NewAnalyzer(res.Trace,
//		memgaze.WithBlockSize(64),
//		memgaze.WithAnalyses(memgaze.AnalyzeFunctions, memgaze.AnalyzeMRC),
//	).Run(ctx)
//	for _, d := range rep.FunctionDiags { ... }
//
// With no WithAnalyses option the analyzer runs the standard suite
// (DefaultAnalyses).
//
// See the examples/ directory for complete programs and DESIGN.md for
// the architecture.
package memgaze

import (
	"context"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/cache"
	"github.com/memgaze/memgaze-go/internal/core"
	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/diff"
	"github.com/memgaze/memgaze-go/internal/engine"
	"github.com/memgaze/memgaze-go/internal/heatmap"
	"github.com/memgaze/memgaze-go/internal/instrument"
	"github.com/memgaze/memgaze-go/internal/interval"
	"github.com/memgaze/memgaze-go/internal/pt"
	"github.com/memgaze/memgaze-go/internal/server"
	"github.com/memgaze/memgaze-go/internal/trace"
	"github.com/memgaze/memgaze-go/internal/vm"
	"github.com/memgaze/memgaze-go/internal/zoom"
)

// Pipeline configuration and drivers (Fig. 1 of the paper).
type (
	// Config selects the collection regime, sampling period, buffer
	// size, and instrumentation scope.
	Config = core.Config
	// Workload is an IR workload: a deterministic builder of a program
	// plus its address space.
	Workload = core.Workload
	// FuncWorkload adapts a build function to Workload.
	FuncWorkload = core.FuncWorkload
	// Result is the outcome of an IR pipeline run.
	Result = core.Result
	// App is a sites-based application workload.
	App = core.App
	// AppResult is the outcome of an application pipeline run.
	AppResult = core.AppResult
	// ParallelApp executes across several workers with per-CPU collectors.
	ParallelApp = core.ParallelApp
)

// DefaultConfig returns a typical application configuration: continuous
// sampling, 5M-load period, 8 KiB buffer, compression on.
func DefaultConfig() Config { return core.DefaultConfig() }

// Run executes the full IR pipeline: build, instrument, baseline run,
// traced run, decode.
func Run(w Workload, cfg Config) (*Result, error) { return core.Run(w, cfg) }

// RunApp executes the application pipeline on a sites-based workload.
func RunApp(app App, cfg Config) (*AppResult, error) { return core.RunApp(app, cfg) }

// RunAppParallel executes an application across workers with per-CPU
// trace collectors, merging the traces.
func RunAppParallel(app ParallelApp, cfg Config, workers int) (*AppResult, error) {
	return core.RunAppParallel(app, cfg, workers)
}

// Collection modes (§III-C, §VI-B).
const (
	// ModeContinuous is MemGaze with PT running continuously.
	ModeContinuous = pt.ModeContinuous
	// ModeSampledPT is MemGaze-opt: PT enabled only around samples.
	ModeSampledPT = pt.ModeSampledPT
	// ModeFull is bandwidth-limited full tracing with perf-style drops.
	ModeFull = pt.ModeFull
)

// Trace collection and building (Analysis/1 of Table II). A collector
// records a run's ptwrite stream; a TraceBuilder decodes it — samples
// fanned out across a worker pool, corruption resynced at the next PSB
// and accounted — so callers go straight from collector to Report:
//
//	col := memgaze.NewCollector(memgaze.CollectorConfig{Period: 10_000, BufBytes: 8 << 10})
//	... run the workload against col ...
//	tr, ds, err := memgaze.NewTraceBuilder(col, notes,
//		memgaze.WithBuildWorkers(4)).Build(ctx)
//	rep, err := memgaze.NewAnalyzer(tr).Run(ctx)
type (
	// Collector records the ptwrite packet stream of one run.
	Collector = pt.Collector
	// CollectorConfig parameterises a Collector.
	CollectorConfig = pt.Config
	// TraceBuilder converts a collector's raw output into a Trace on a
	// bounded worker pool. Create with NewTraceBuilder.
	TraceBuilder = pt.Builder
	// BuildOption configures a TraceBuilder (see the WithBuild...
	// constructors and WithFaultPolicy).
	BuildOption = pt.BuildOption
	// DecodeStats accounts every byte and event of one trace build,
	// including corruption losses. Result.Decode and AppResult.Decode
	// carry the stats of pipeline runs.
	DecodeStats = pt.DecodeStats
	// FaultPolicy selects how corrupted packet spans are handled.
	FaultPolicy = pt.FaultPolicy
	// CorruptionError is Build's error under FaultFail.
	CorruptionError = pt.CorruptionError
)

// Fault policies for WithFaultPolicy.
const (
	// FaultResync skips to the next PSB and accounts the loss (default).
	FaultResync = pt.FaultResync
	// FaultFail aborts the build on the first corrupted span.
	FaultFail = pt.FaultFail
)

// NewCollector creates a trace collector.
var NewCollector = pt.NewCollector

// NewTraceBuilder creates a trace builder over a collector and the
// module's annotations; execute it with Build(ctx).
func NewTraceBuilder(col *Collector, ann *Annotations, opts ...BuildOption) *TraceBuilder {
	return pt.NewBuilder(col, ann, opts...)
}

// BuildTrace is the one-call form: decode everything col recorded into
// a load-level trace. Equivalent to NewTraceBuilder(...).Build(ctx).
func BuildTrace(ctx context.Context, col *Collector, ann *Annotations, opts ...BuildOption) (*Trace, DecodeStats, error) {
	return pt.NewBuilder(col, ann, opts...).Build(ctx)
}

// TraceBuilder options.
var (
	// WithBuildWorkers bounds the samples decoded concurrently.
	WithBuildWorkers = pt.WithWorkers
	// WithFaultPolicy selects FaultResync (default) or FaultFail.
	WithFaultPolicy = pt.WithFaultPolicy
	// WithDecodeStatsSink registers a callback for the final DecodeStats.
	WithDecodeStatsSink = pt.WithStatsSink
	// WithBuildProgress registers a per-sample progress callback.
	WithBuildProgress = pt.WithProgress
)

// Trace data model (§III-C).
type (
	// Trace is a collected memory trace.
	Trace = trace.Trace
	// Sample is one recorded window of w accesses.
	Sample = trace.Sample
	// Record is one decoded load-level access.
	Record = trace.Record
)

// ReadTrace deserialises a trace written by Trace.Write.
var ReadTrace = trace.Read

// MergeTraces combines per-CPU traces into one.
var MergeTraces = trace.Merge

// Load classification (§III-B).
type (
	// Class is a load access class: Constant, Strided, or Irregular.
	Class = dataflow.Class
	// Annotations is the auxiliary annotation file emitted by the
	// instrumentor.
	Annotations = instrument.Annotations
)

// Load classes.
const (
	Constant  = dataflow.Constant
	Strided   = dataflow.Strided
	Irregular = dataflow.Irregular
)

// The analyzer engine (§IV–§V as one suite).
type (
	// Analyzer runs a set of analyses over one trace as a suite with
	// shared derived data and context cancellation. Create with
	// NewAnalyzer, execute with Run.
	Analyzer = engine.Analyzer
	// Option configures an Analyzer (see the With... constructors).
	Option = engine.Option
	// AnalyzerOptions is the resolved configuration of an Analyzer.
	AnalyzerOptions = engine.Options
	// Report aggregates every requested analysis output of one Run.
	Report = engine.Report
	// Analysis identifies one analysis of the suite (the Analyze...
	// constants).
	Analysis = engine.Analysis
)

// The analyses an Analyzer can run.
const (
	AnalyzeFunctions      = engine.AnalyzeFunctions
	AnalyzeLines          = engine.AnalyzeLines
	AnalyzeRegions        = engine.AnalyzeRegions
	AnalyzeWindows        = engine.AnalyzeWindows
	AnalyzeWorkingSet     = engine.AnalyzeWorkingSet
	AnalyzeReuseIntervals = engine.AnalyzeReuseIntervals
	AnalyzeMRC            = engine.AnalyzeMRC
	AnalyzeConfidence     = engine.AnalyzeConfidence
	AnalyzeIntervalTree   = engine.AnalyzeIntervalTree
	AnalyzeZoom           = engine.AnalyzeZoom
	AnalyzeHeatmap        = engine.AnalyzeHeatmap
	AnalyzeROI            = engine.AnalyzeROI
)

// NewAnalyzer creates an analysis engine over t. Options default to the
// standard suite at cache-line blocks; see DefaultAnalyses and the
// With... constructors.
func NewAnalyzer(t *Trace, opts ...Option) *Analyzer { return engine.New(t, opts...) }

// DefaultAnalyses is the suite an Analyzer runs when WithAnalyses is
// not given.
func DefaultAnalyses() []Analysis { return engine.DefaultAnalyses() }

// AllAnalyses lists every analysis the engine knows.
func AllAnalyses() []Analysis { return engine.AllAnalyses() }

// AnalysisNames lists every analysis's wire name, in Analysis order —
// the strings ParseAnalysis and the service's "analyses" fields accept.
func AnalysisNames() []string { return engine.AnalysisNames() }

// ParseAnalysis resolves an analysis wire name ("functions", "mrc", …)
// to its Analysis, reporting whether the name is known.
var ParseAnalysis = engine.ParseAnalysis

// Analyzer options.
var (
	// WithBlockSize sets the access-block granularity in bytes.
	WithBlockSize = engine.WithBlockSize
	// WithPageSize sets the working-set page size in bytes.
	WithPageSize = engine.WithPageSize
	// WithWindows sets the trace-window sizes.
	WithWindows = engine.WithWindows
	// WithParallelism bounds the number of analyses running concurrently.
	WithParallelism = engine.WithParallelism
	// WithAnalyses selects the analyses to run.
	WithAnalyses = engine.WithAnalyses
	// WithRegions sets the regions of AnalyzeRegions.
	WithRegions = engine.WithRegions
	// WithCapacities sets the miss-ratio curve capacities in blocks.
	WithCapacities = engine.WithCapacities
	// WithTimeIntervals sets the interval-tree breakdown granularity.
	WithTimeIntervals = engine.WithTimeIntervals
	// WithWorkingSetIntervals sets the working-set curve granularity.
	WithWorkingSetIntervals = engine.WithWorkingSetIntervals
	// WithZoomConfig configures the location zoom.
	WithZoomConfig = engine.WithZoomConfig
	// WithHeatmapRegion fixes the heatmap's address range.
	WithHeatmapRegion = engine.WithHeatmapRegion
	// WithHeatmapBins sets the heatmap geometry.
	WithHeatmapBins = engine.WithHeatmapBins
	// WithROICoverage sets the load share the suggested ROI must cover.
	WithROICoverage = engine.WithROICoverage
	// WithConfidenceConfig sets the undersampling thresholds.
	WithConfidenceConfig = engine.WithConfidenceConfig
)

// Analysis result types (§IV–§V).
type (
	// Diag is a footprint access diagnostic for a code window or region.
	Diag = analysis.Diag
	// Region is a named address range.
	Region = analysis.Region
	// WindowMetrics is one point of a trace-window histogram.
	WindowMetrics = analysis.WindowMetrics
	// WorkingSetPoint is one time interval of the working-set curve.
	WorkingSetPoint = analysis.WorkingSetPoint
	// StackDist computes spatio-temporal reuse distance and interval.
	StackDist = analysis.StackDist
	// Confidence reports estimate stability for a code window (§VI-A).
	Confidence = analysis.Confidence
	// ConfidenceConfig sets the undersampling flagging thresholds.
	ConfidenceConfig = analysis.ConfidenceConfig
	// ReuseProfile is a trace's reuse-distance distribution, reusable
	// across capacities.
	ReuseProfile = analysis.ReuseProfile
	// MRCPoint is one capacity of the miss-ratio curve.
	MRCPoint = analysis.MRCPoint
	// MRCBound brackets the miss ratio at one capacity.
	MRCBound = analysis.MRCBound
	// IntervalBucket is one bucket of the reuse-interval histogram.
	IntervalBucket = analysis.IntervalBucket
	// IntervalTree is the multi-resolution execution-time tree (Fig. 4).
	IntervalTree = interval.Tree
	// ZoomNode is a region of the location zoom tree (Fig. 5).
	ZoomNode = zoom.Node
	// ZoomConfig controls the recursive location zoom.
	ZoomConfig = zoom.Config
	// Heatmap is a location × time distribution (Fig. 8).
	Heatmap = heatmap.Heatmap
)

// NewStackDist creates a reuse-distance tracker at a block granularity.
var NewStackDist = analysis.NewStackDist

// PowerOfTwoWindows returns {2^lo..2^hi}.
var PowerOfTwoWindows = analysis.PowerOfTwoWindows

// MAPE compares two window histograms (Fig. 6's metric).
var MAPE = analysis.MAPE

// ZoomLeaves returns the final regions of a zoom tree.
var ZoomLeaves = zoom.Leaves

// BuildZoomOverTime runs the zoom per time interval (time × location).
var BuildZoomOverTime = zoom.BuildOverTime

// Cross-trace comparison. Every case study of the paper reads two
// traces side by side; Compare (over Reports) and CompareTraces (over
// traces, running both engine suites concurrently) serve that directly:
//
//	d, err := memgaze.CompareTraces(ctx, trA, trB, memgaze.WithDiffTopK(10))
//	for _, f := range d.Functions { ... } // per-function shifts, A − B
//
// Deltas are A − B throughout; see DiffReport's sections for the MRC,
// footprint-growth, symbol, and address-region comparisons.
type (
	// DiffReport is the full comparison of two Reports.
	DiffReport = diff.DiffReport
	// MRCDelta is one aligned capacity of two miss-ratio curves, with
	// confidence bounds propagated through the subtraction.
	MRCDelta = diff.MRCDelta
	// GrowthPoint is one normalized-time point of the footprint-growth
	// comparison.
	GrowthPoint = diff.GrowthPoint
	// SymbolShift is one function's or line's diagnostic shift.
	SymbolShift = diff.SymbolShift
	// RegionShift is one aligned pair of zoom-tree leaves.
	RegionShift = diff.RegionShift
	// DiffOption configures Compare and CompareTraces.
	DiffOption = diff.Option
)

// Compare diffs two already-built Reports; deltas are A − B.
func Compare(a, b *Report, opts ...DiffOption) *DiffReport { return diff.Diff(a, b, opts...) }

// CompareTraces analyses both traces with identical options (the two
// engine suites run concurrently) and diffs the Reports.
func CompareTraces(ctx context.Context, a, b *Trace, opts ...DiffOption) (*DiffReport, error) {
	return diff.DiffTraces(ctx, a, b, opts...)
}

// DiffAnalyses is the engine suite CompareTraces runs by default.
func DiffAnalyses() []Analysis { return diff.DiffAnalyses() }

// Diff options.
var (
	// WithDiffTopK truncates the symbol and region sections to the k
	// largest shifts (0 = unlimited).
	WithDiffTopK = diff.WithTopK
	// WithDiffEngineOptions sets the engine options CompareTraces applies
	// identically to both runs.
	WithDiffEngineOptions = diff.WithEngineOptions
)

// The memgazed analysis service (cmd/memgazed). A Server holds uploaded
// traces in a sharded, byte-budgeted LRU store and serves engine
// analyses over HTTP with request coalescing, a result cache, and
// Prometheus metrics at /metrics:
//
//	srv, err := memgaze.NewServer(memgaze.ServerConfig{Workers: 8, DataDir: "/var/lib/memgazed"})
//	if err != nil { ... }
//	defer srv.Close()
//	http.ListenAndServe(":8080", srv)
//
// For graceful shutdown, drain the HTTP listener first
// (http.Server.Shutdown), then Close the Server.
type (
	// Server is the memgazed HTTP trace-analysis service; it implements
	// http.Handler. Create with NewServer.
	Server = server.Server
	// ServerConfig parameterises a Server; zero fields take defaults.
	ServerConfig = server.Config
	// AnalyzeRequest is the JSON body of POST /v1/traces/{id}/analyze.
	AnalyzeRequest = server.AnalyzeRequest
	// DiffRequest is the JSON body of POST /v1/diff.
	DiffRequest = server.DiffRequest
	// TraceInfo is the service's trace-metadata answer.
	TraceInfo = server.TraceInfo
	// TraceList is the paged answer of GET /v1/traces.
	TraceList = server.TraceList
	// ErrorEnvelope is the structured error body of every /v1 error
	// answer: {"error": {"code", "message"}} with a stable code.
	ErrorEnvelope = server.ErrorEnvelope
	// PTCapture is the portable form of a collector's raw output — what
	// a collection host POSTs to /v1/traces as ContentTypePT.
	PTCapture = pt.Capture
)

// Content types of memgazed trace uploads.
const (
	// ContentTypeTrace marks a serialised trace body (Trace.Encode).
	ContentTypeTrace = server.ContentTypeTrace
	// ContentTypePT marks a raw PT capture body (PTCapture.Write).
	ContentTypePT = server.ContentTypePT
)

// NewServer creates a memgazed service and starts its shared analysis
// worker pool. With cfg.DataDir set it opens (or recovers) the durable
// on-disk segment store there, so the trace corpus survives restarts;
// an unrecoverable data directory is the only error.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// ReadPTCapture deserialises a capture written by PTCapture.Write.
var ReadPTCapture = pt.ReadCapture

// Machine model.
type (
	// CostModel assigns cycle costs to instruction classes.
	CostModel = vm.CostModel
	// CacheConfig sizes the optional cache timing model.
	CacheConfig = cache.Config
)

// DefaultCosts approximates a small out-of-order core.
var DefaultCosts = vm.DefaultCosts

// DefaultCacheConfig models a modest last-level cache.
var DefaultCacheConfig = cache.DefaultConfig
