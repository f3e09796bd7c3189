package engine

import (
	"time"

	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/zoom"
)

// Analysis identifies one analysis the engine can run.
type Analysis int

// The analyses of the suite, in the paper's order of presentation.
const (
	// AnalyzeFunctions computes per-function footprint access
	// diagnostics (§IV-B, Table I) — Report.FunctionDiags.
	AnalyzeFunctions Analysis = iota
	// AnalyzeLines computes per-source-line diagnostics (§III-D) —
	// Report.LineDiags.
	AnalyzeLines
	// AnalyzeRegions computes diagnostics for the configured memory
	// regions (§IV-C2) — Report.RegionDiags. Skipped (empty result)
	// when Options.Regions is empty.
	AnalyzeRegions
	// AnalyzeWindows computes the trace-window histogram (§VI-A,
	// Fig. 6) — Report.Windows.
	AnalyzeWindows
	// AnalyzeWorkingSet computes the page-granularity working-set
	// curve (§V-B) — Report.WorkingSet.
	AnalyzeWorkingSet
	// AnalyzeReuseIntervals computes the reuse-interval histogram with
	// its R1/R3 split (§IV-A) — Report.ReuseIntervals.
	AnalyzeReuseIntervals
	// AnalyzeMRC predicts the LRU miss-ratio curve and its bounds at
	// the configured capacities — Report.MRC and Report.MRCBounds.
	AnalyzeMRC
	// AnalyzeConfidence flags undersampled code windows (§VI-A) —
	// Report.Confidence.
	AnalyzeConfidence
	// AnalyzeIntervalTree builds the execution interval tree (Fig. 4)
	// and the per-interval breakdown — Report.IntervalTree and
	// Report.IntervalDiags.
	AnalyzeIntervalTree
	// AnalyzeZoom runs the location zoom (Fig. 5) — Report.ZoomRoot,
	// Report.ZoomLeaves, Report.ZoomLeafBlocks.
	AnalyzeZoom
	// AnalyzeHeatmap renders the location × time heatmap (Fig. 8) of
	// the configured region, defaulting to the hottest zoom leaf —
	// Report.Heatmap.
	AnalyzeHeatmap
	// AnalyzeROI suggests the hottest procedures covering
	// Options.ROICoverPct of the loads (§II) — Report.ROI.
	AnalyzeROI

	numAnalyses
)

var analysisNames = [numAnalyses]string{
	"functions", "lines", "regions", "windows", "working-set",
	"reuse-intervals", "mrc", "confidence", "interval-tree", "zoom",
	"heatmap", "roi",
}

// String returns the analysis's flag-style name.
func (a Analysis) String() string {
	if a >= 0 && a < numAnalyses {
		return analysisNames[a]
	}
	return "unknown"
}

// ParseAnalysis resolves a flag-style analysis name ("mrc", "zoom", …)
// to its Analysis. The second result is false for unknown names.
func ParseAnalysis(name string) (Analysis, bool) {
	for i, n := range analysisNames {
		if n == name {
			return Analysis(i), true
		}
	}
	return 0, false
}

// AnalysisNames lists every analysis's flag-style name in suite order —
// the valid inputs of ParseAnalysis, for clients building analysis
// lists without magic strings.
func AnalysisNames() []string {
	out := make([]string, numAnalyses)
	copy(out, analysisNames[:])
	return out
}

// DefaultAnalyses is the standard suite: everything that needs no extra
// configuration (regions, heatmap geometry, line attribution are
// opt-in).
func DefaultAnalyses() []Analysis {
	return []Analysis{
		AnalyzeFunctions, AnalyzeWindows, AnalyzeWorkingSet,
		AnalyzeReuseIntervals, AnalyzeMRC, AnalyzeConfidence,
		AnalyzeIntervalTree, AnalyzeZoom, AnalyzeROI,
	}
}

// AllAnalyses lists every analysis the engine knows.
func AllAnalyses() []Analysis {
	out := make([]Analysis, numAnalyses)
	for i := range out {
		out[i] = Analysis(i)
	}
	return out
}

// Options configures an Analyzer. The zero value is not useful; New
// starts from defaultOptions and applies functional options.
type Options struct {
	// BlockSize is the access-block granularity in bytes for reuse
	// distance and the miss-ratio profile (default 64, the cache line).
	BlockSize uint64
	// PageSize is the working-set page size in bytes (default 4096).
	PageSize uint64
	// Windows are the nominal trace-window sizes (default 2^4..2^16).
	Windows []uint64
	// WorkingSetIntervals splits the trace for the working-set curve
	// (default 8).
	WorkingSetIntervals int
	// TimeIntervals splits the trace for the interval-tree breakdown
	// (default 8; 0 keeps the tree but skips the breakdown).
	TimeIntervals int
	// Capacities are the cache sizes, in blocks, of the miss-ratio
	// curve (default {64, 256, 1024, 4096, 16384}).
	Capacities []int
	// Regions are the named address ranges of AnalyzeRegions.
	Regions []analysis.Region
	// Zoom configures the location zoom; zero fields take the zoom
	// package defaults, with Block defaulting to BlockSize.
	Zoom zoom.Config
	// HeatmapLo/HeatmapHi bound the heatmap region; both zero selects
	// the hottest zoom leaf.
	HeatmapLo, HeatmapHi uint64
	// HeatmapRows and HeatmapCols set the heatmap geometry
	// (default 20×56).
	HeatmapRows, HeatmapCols int
	// ROICoverPct is the load share the suggested region of interest
	// must cover (default 90).
	ROICoverPct float64
	// Confidence sets the undersampling thresholds; a zero BlockSize
	// takes BlockSize above.
	Confidence analysis.ConfidenceConfig
	// Parallelism bounds concurrent analyses (default GOMAXPROCS).
	Parallelism int
	// Analyses selects the suite (default DefaultAnalyses).
	Analyses []Analysis
	// Observer, when non-nil, is called after each analysis completes
	// successfully with its wall-clock duration. Analyses run on a
	// worker pool, so calls may be concurrent; the observer must be
	// safe for concurrent use.
	Observer func(a Analysis, d time.Duration)
}

func defaultOptions() Options {
	return Options{
		BlockSize:           64,
		PageSize:            4096,
		Windows:             analysis.PowerOfTwoWindows(4, 16),
		WorkingSetIntervals: 8,
		TimeIntervals:       8,
		Capacities:          []int{64, 256, 1024, 4096, 16384},
		HeatmapRows:         20,
		HeatmapCols:         56,
		ROICoverPct:         90,
		Analyses:            DefaultAnalyses(),
	}
}

// Option mutates Options; pass them to New.
type Option func(*Options)

// WithBlockSize sets the access-block granularity in bytes.
func WithBlockSize(bytes uint64) Option {
	return func(o *Options) { o.BlockSize = bytes }
}

// WithPageSize sets the working-set page size in bytes.
func WithPageSize(bytes uint64) Option {
	return func(o *Options) { o.PageSize = bytes }
}

// WithWindows sets the trace-window sizes.
func WithWindows(w []uint64) Option {
	return func(o *Options) { o.Windows = w }
}

// WithParallelism bounds the number of analyses running concurrently.
func WithParallelism(n int) Option {
	return func(o *Options) { o.Parallelism = n }
}

// WithAnalyses selects the analyses to run.
func WithAnalyses(kinds ...Analysis) Option {
	return func(o *Options) { o.Analyses = kinds }
}

// WithRegions sets the regions of AnalyzeRegions.
func WithRegions(regions []analysis.Region) Option {
	return func(o *Options) { o.Regions = regions }
}

// WithCapacities sets the miss-ratio curve capacities in blocks.
func WithCapacities(capacities []int) Option {
	return func(o *Options) { o.Capacities = capacities }
}

// WithTimeIntervals sets the interval-tree breakdown granularity.
func WithTimeIntervals(k int) Option {
	return func(o *Options) { o.TimeIntervals = k }
}

// WithWorkingSetIntervals sets the working-set curve granularity.
func WithWorkingSetIntervals(k int) Option {
	return func(o *Options) { o.WorkingSetIntervals = k }
}

// WithZoomConfig configures the location zoom.
func WithZoomConfig(cfg zoom.Config) Option {
	return func(o *Options) { o.Zoom = cfg }
}

// WithHeatmapRegion fixes the heatmap's address range instead of the
// hottest zoom leaf.
func WithHeatmapRegion(lo, hi uint64) Option {
	return func(o *Options) { o.HeatmapLo, o.HeatmapHi = lo, hi }
}

// WithHeatmapBins sets the heatmap geometry.
func WithHeatmapBins(rows, cols int) Option {
	return func(o *Options) { o.HeatmapRows, o.HeatmapCols = rows, cols }
}

// WithROICoverage sets the load share the suggested ROI must cover.
func WithROICoverage(pct float64) Option {
	return func(o *Options) { o.ROICoverPct = pct }
}

// WithConfidenceConfig sets the undersampling thresholds.
func WithConfidenceConfig(cfg analysis.ConfidenceConfig) Option {
	return func(o *Options) { o.Confidence = cfg }
}

// WithObserver registers a per-analysis duration callback, called after
// each analysis of the suite completes successfully. It must be safe
// for concurrent use (analyses run on a worker pool). Observability
// layers use it to attribute suite wall-clock to individual analyses.
func WithObserver(fn func(a Analysis, d time.Duration)) Option {
	return func(o *Options) { o.Observer = fn }
}
