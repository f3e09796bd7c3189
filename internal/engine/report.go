package engine

import (
	"github.com/memgaze/memgaze-go/internal/analysis"
	"github.com/memgaze/memgaze-go/internal/heatmap"
	"github.com/memgaze/memgaze-go/internal/interval"
	"github.com/memgaze/memgaze-go/internal/zoom"
)

// Report aggregates the outputs of one Analyzer.Run. Fields for
// analyses that were not requested stay zero.
type Report struct {
	// Trace identity (always filled).
	Module  string
	Samples int
	Records int
	Rho     float64 // sample ratio ρ
	Kappa   float64 // compression ratio κ

	// FunctionDiags are the per-function diagnostics, hottest first
	// (AnalyzeFunctions).
	FunctionDiags []*analysis.Diag
	// LineDiags are the per-source-line diagnostics, hottest first
	// (AnalyzeLines).
	LineDiags []*analysis.Diag
	// RegionDiags are the per-region diagnostics, in Options.Regions
	// order (AnalyzeRegions).
	RegionDiags []*analysis.Diag
	// Windows is the trace-window histogram (AnalyzeWindows).
	Windows []analysis.WindowMetrics
	// WorkingSet is the page-granularity working-set curve
	// (AnalyzeWorkingSet).
	WorkingSet []analysis.WorkingSetPoint
	// ReuseIntervals is the log2 reuse-interval histogram
	// (AnalyzeReuseIntervals).
	ReuseIntervals []analysis.IntervalBucket
	// MRC is the predicted LRU miss-ratio curve at Options.Capacities;
	// MRCBounds brackets each point (AnalyzeMRC).
	MRC       []analysis.MRCPoint
	MRCBounds []analysis.MRCBound
	// Confidence reports per-function estimate stability, most-flagged
	// first (AnalyzeConfidence).
	Confidence []analysis.Confidence
	// IntervalTree is the execution interval tree; IntervalDiags is the
	// Options.TimeIntervals-way breakdown (AnalyzeIntervalTree).
	IntervalTree  *interval.Tree
	IntervalDiags []*analysis.Diag
	// ZoomRoot is the location zoom tree; ZoomLeaves its final regions
	// in address order; ZoomLeafBlocks the distinct access blocks per
	// leaf, parallel to ZoomLeaves (AnalyzeZoom).
	ZoomRoot       *zoom.Node
	ZoomLeaves     []*zoom.Node
	ZoomLeafBlocks []int
	// Heatmap is the location × time heatmap; nil when no region was
	// configured and the zoom found no leaves (AnalyzeHeatmap).
	Heatmap *heatmap.Heatmap
	// ROI is the suggested region of interest (AnalyzeROI).
	ROI []string
}

// IdentityFields are the Report fields every run fills, whatever its
// analyses: the trace identity that leads the Report.
var IdentityFields = []string{"Module", "Samples", "Records", "Rho", "Kappa"}

// reportFields maps each analysis to the Report fields it fills, in
// declaration order. Read in suite order after IdentityFields, the
// groups list every Report field exactly once, in declaration order
// (TestReportFieldGroups pins it), so a Report's JSON is the identity
// followed by each analysis's group in turn.
var reportFields = [numAnalyses][]string{
	AnalyzeFunctions:      {"FunctionDiags"},
	AnalyzeLines:          {"LineDiags"},
	AnalyzeRegions:        {"RegionDiags"},
	AnalyzeWindows:        {"Windows"},
	AnalyzeWorkingSet:     {"WorkingSet"},
	AnalyzeReuseIntervals: {"ReuseIntervals"},
	AnalyzeMRC:            {"MRC", "MRCBounds"},
	AnalyzeConfidence:     {"Confidence"},
	AnalyzeIntervalTree:   {"IntervalTree", "IntervalDiags"},
	AnalyzeZoom:           {"ZoomRoot", "ZoomLeaves", "ZoomLeafBlocks"},
	AnalyzeHeatmap:        {"Heatmap"},
	AnalyzeROI:            {"ROI"},
}

// Fields returns the Report fields analysis a fills, in declaration
// order; a Report from a run without a leaves them zero. The slice is
// shared; callers must not modify it.
func (a Analysis) Fields() []string { return reportFields[a] }
